package cluster

// LiveAtStop counts what a run left behind when its loop stopped: tasks on
// the calendar's wheel and in its overflow heap, and jobs with gated copies.
type LiveAtStop struct{ Wheel, Overflow, GatedJobs int }

// RunReportingLive is Run, also reporting what was live when the loop
// stopped, before the workspace was released.
func RunReportingLive(e *Engine) (*Result, LiveAtStop, error) {
	if e.workspace == nil {
		return nil, LiveAtStop{}, errRunTwice
	}
	res, err := e.run()
	live := LiveAtStop{Wheel: e.cal.n, Overflow: len(e.cal.over.a), GatedJobs: len(e.gatedJobs)}
	e.release()
	return res, live, err
}
