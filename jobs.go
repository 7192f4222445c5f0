package pslocal

// jobs.go re-exports the asynchronous job subsystem (internal/jobs): a
// JobManager owns a bounded priority FIFO queue, a worker pool driving a
// shared Solver, and the full job lifecycle (queued → running → done |
// failed | cancelled) with deadlines, retry-on-transient policy,
// per-job cancellation and a persistent result store. cmd/cfserve
// surfaces it as the /v1/jobs API and cmd/cfbatch drives directory-scale
// sweeps through it.
//
//	sv := pslocal.NewSolver(pslocal.WithCache(128), pslocal.WithMaxInflight(-1))
//	jm, err := pslocal.NewJobManager(pslocal.JobConfig{
//		Solver: sv, Dir: "jobs-store", Workers: 4,
//	})
//	info, _, err := jm.Submit(pslocal.JobRequest{
//		Body:     instanceBytes,               // any graphio format
//		Params:   pslocal.JobParams{K: 3, Oracle: "greedy-mindeg"},
//		Priority: pslocal.JobPriorityHigh,
//	})
//	final, err := jm.Await(ctx, info.ID)       // or Watch for streaming events
//	res, err := jm.Result(info.ID)             // persisted as a graphio result doc
//
// Job identity is the SHA-256 content hash of format+parameters+body, so
// resubmissions are idempotent and completed jobs survive a restart of
// the manager over the same store directory.

import "pslocal/internal/jobs"

type (
	// JobManager orchestrates asynchronous reduction jobs: construct
	// with NewJobManager, submit with [JobManager.Submit], follow with
	// [JobManager.Get], [JobManager.Watch] or [JobManager.Await], and
	// stop with [JobManager.Close]. Safe for concurrent use.
	JobManager = jobs.Manager
	// JobConfig configures a JobManager (base Solver, store directory,
	// worker-pool width, queue capacity, retry classifier).
	JobConfig = jobs.Config
	// JobRequest describes one job to submit: instance body, format
	// directive, JobParams, priority, deadline, retry budget, label.
	JobRequest = jobs.Request
	// JobParams are the per-job solve options mirroring the Solver's
	// option set; zero fields inherit the base Solver's configuration.
	JobParams = jobs.Params
	// JobInfo is a point-in-time job snapshot.
	JobInfo = jobs.Info
	// JobState is the lifecycle state (JobQueued, JobRunning, JobDone,
	// JobFailed, JobCancelled).
	JobState = jobs.State
	// JobPriority selects the queue lane (JobPriorityLow/Normal/High).
	JobPriority = jobs.Priority
	// JobEvent is one lifecycle transition delivered by JobManager.Watch.
	JobEvent = jobs.Event
	// JobFilter selects jobs for JobManager.List.
	JobFilter = jobs.Filter
	// JobStats snapshots the manager's counters (cfserve exports them
	// on GET /metrics).
	JobStats = jobs.Stats
)

// Job lifecycle states.
const (
	JobQueued    = jobs.StateQueued
	JobRunning   = jobs.StateRunning
	JobDone      = jobs.StateDone
	JobFailed    = jobs.StateFailed
	JobCancelled = jobs.StateCancelled
)

// Job queue lanes.
const (
	JobPriorityLow    = jobs.PriorityLow
	JobPriorityNormal = jobs.PriorityNormal
	JobPriorityHigh   = jobs.PriorityHigh
)

var (
	// ErrJobQueueFull reports a Submit rejected at the queue bound;
	// cfserve maps it to 503.
	ErrJobQueueFull = jobs.ErrQueueFull
	// ErrJobNotFound reports an unknown job id.
	ErrJobNotFound = jobs.ErrNotFound
	// ErrJobManagerClosed reports a Submit after Close.
	ErrJobManagerClosed = jobs.ErrClosed
	// ErrJobTransient tags failures the default retry policy re-runs.
	ErrJobTransient = jobs.ErrTransient
	// ErrNoJobResult reports a Result call on a job that has none.
	ErrNoJobResult = jobs.ErrNoResult
	// ErrJobDraining reports a Submit on a draining manager
	// ([JobManager.Drain]): running and queued jobs finish, new work is
	// refused. cfserve maps it to 503 with a Retry-After hint.
	ErrJobDraining = jobs.ErrDraining
)

// NewJobManager builds a JobManager: it creates the store directory,
// rescans it for jobs completed before a previous shutdown, and starts
// the worker pool.
func NewJobManager(cfg JobConfig) (*JobManager, error) { return jobs.New(cfg) }

// ParseJobPriority maps a flag or query spelling (low|normal|high, "" =
// normal) onto a JobPriority.
func ParseJobPriority(s string) (JobPriority, error) { return jobs.ParsePriority(s) }

// ParseJobState maps a filter spelling onto a JobState.
func ParseJobState(s string) (JobState, error) { return jobs.ParseState(s) }
