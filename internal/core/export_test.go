package core

// TickSchedule exposes the tick schedule override to core's external tests,
// so suites whose grids are far below tickGrain still run the workers.
type TickSchedule = tickSchedule

const (
	ScheduleAdaptive = scheduleAdaptive
	ScheduleInline   = scheduleInline
	ScheduleFanout   = scheduleFanout
)

// SetTickSchedule pins how a Parallel driver runs its ticks.
func SetTickSchedule(d *Driver, s TickSchedule) { d.sched = s }
