package serve

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// Job lifecycle states reported by the job API. A job moves strictly
// queued → running → done|failed; completed jobs stay resident in the
// store (the content-addressed result layer for both /reorder and /jobs)
// until evicted by capacity pressure, so a repeated matrix is a store
// hit, not a recompute.
const (
	jobQueued  = "queued"
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// storedJob is one entry of the job store. Identity fields (id, digest,
// technique, quality, done, submitted, cancel) are immutable after
// creation; lifecycle and interest fields are written only by jobStore
// methods holding the store mutex, and readers take a snapshot under the
// same mutex.
type storedJob struct {
	id        string
	digest    string
	technique string
	quality   bool
	done      chan struct{} // closed exactly once, on completion
	submitted time.Time
	cancel    context.CancelFunc // cancels the job's detached context

	status      string
	res         *reorderResult
	err         error
	completedMS float64 // wall time from submit to completion

	// waiters counts synchronous requests that joined the job and have not
	// given up; pinned marks a job an async submission handed out the ID
	// of. The last waiter to give up on an unpinned, unfinished job cancels
	// it (abandoned), since no one is left to receive the result.
	waiters   int
	pinned    bool
	abandoned bool
}

// replaceable reports whether create-or-get should install a fresh job in
// place of j: it failed, or it was abandoned before it finished. Either
// way a retry must recompute rather than observe the stale outcome.
func (j *storedJob) replaceable() bool {
	return j.status == jobFailed || (j.abandoned && j.status != jobDone)
}

// jobSnapshot is an immutable copy of a job's state, safe to use without
// holding the store lock.
type jobSnapshot struct {
	ID          string
	Digest      string
	Technique   string
	Status      string
	Res         *reorderResult
	ErrMsg      string
	CompletedMS float64
}

// jobStore is the content-addressed job index and the service's only
// dedup and result layer: job IDs are derived from the matrix digest and
// technique, so identical requests — sync or async, from any client or
// forwarding peer — collapse onto one entry. Completed jobs are retained
// LRU-bounded by capacity; queued and running jobs are never evicted (the
// worker queue depth bounds how many can exist).
type jobStore struct {
	mu       sync.Mutex
	capacity int
	byID     map[string]*list.Element
	order    *list.List // front = most recently touched; stores *storedJob
}

// newJobStore returns an empty store retaining up to capacity jobs.
func newJobStore(capacity int) *jobStore {
	if capacity < 1 {
		capacity = 1
	}
	return &jobStore{
		capacity: capacity,
		byID:     make(map[string]*list.Element, capacity),
		order:    list.New(),
	}
}

// acquire is create-or-get. It returns the resident job for id, or
// installs a fresh queued job (owning cancel) when none is resident or
// the resident one is replaceable. A pinning caller (async submit) keeps
// the job alive with or without waiters; any other caller joins as a
// waiter and must wait on the job. The returned bool reports whether the
// job already existed, in which case the caller still owns cancel.
func (st *jobStore) acquire(id, digest, technique string, quality, pin bool, cancel context.CancelFunc) (*storedJob, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.byID[id]; ok {
		j := el.Value.(*storedJob)
		if !j.replaceable() {
			st.order.MoveToFront(el)
			j.joinLocked(pin)
			return j, true
		}
		st.order.Remove(el)
	}
	j := &storedJob{
		id:        id,
		digest:    digest,
		technique: technique,
		quality:   quality,
		done:      make(chan struct{}),
		submitted: time.Now(),
		cancel:    cancel,
		status:    jobQueued,
	}
	j.joinLocked(pin)
	st.byID[id] = st.order.PushFront(j)
	st.evictLocked()
	return j, false
}

// joinLocked registers a caller's interest in j, a pin or one more
// waiter. The caller holds the store mutex.
func (j *storedJob) joinLocked(pin bool) {
	if pin {
		j.pinned = true
	} else {
		j.waiters++
	}
}

// wait blocks a joined waiter until the job completes or ctx fires. A
// waiter that gives up leaves; the last one to leave an unpinned job that
// has not finished cancels it.
func (st *jobStore) wait(ctx context.Context, j *storedJob) (*reorderResult, error) {
	select {
	case <-j.done:
		// res and err were written before done closed.
		return j.res, j.err
	case <-ctx.Done():
		st.mu.Lock()
		j.waiters--
		if j.waiters == 0 && !j.pinned && j.status != jobDone {
			j.abandoned = true
			j.cancel()
		}
		st.mu.Unlock()
		return nil, ctx.Err()
	}
}

// get returns the job for id, refreshing its recency, or nil.
func (st *jobStore) get(id string) *storedJob {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.byID[id]
	if !ok {
		return nil
	}
	st.order.MoveToFront(el)
	return el.Value.(*storedJob)
}

// setRunning transitions the job to running.
func (st *jobStore) setRunning(j *storedJob) {
	st.mu.Lock()
	j.status = jobRunning
	st.mu.Unlock()
}

// complete finishes the job with a result or an error, records the wall
// time since submission, and wakes every waiter and long-poller by
// closing done.
func (st *jobStore) complete(j *storedJob, res *reorderResult, err error) {
	st.mu.Lock()
	if err != nil {
		j.status = jobFailed
		j.err = err
	} else {
		j.status = jobDone
		j.res = res
	}
	j.completedMS = float64(time.Since(j.submitted)) / float64(time.Millisecond)
	st.mu.Unlock()
	close(j.done)
}

// snapshot copies the job's current state under the store lock.
func (st *jobStore) snapshot(j *storedJob) jobSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	snap := jobSnapshot{
		ID:          j.id,
		Digest:      j.digest,
		Technique:   j.technique,
		Status:      j.status,
		Res:         j.res,
		CompletedMS: j.completedMS,
	}
	if j.err != nil {
		snap.ErrMsg = j.err.Error()
	}
	return snap
}

// len returns the number of resident jobs (all states).
func (st *jobStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.order.Len()
}

// evictLocked removes least-recently-touched completed jobs until the
// store fits its capacity. Incomplete jobs are skipped: their done channel
// is the waiters' wakeup and their entry is the dedup point, so dropping
// one would orphan waiters and re-run work.
func (st *jobStore) evictLocked() {
	for st.order.Len() > st.capacity {
		evicted := false
		for el := st.order.Back(); el != nil; el = el.Prev() {
			j := el.Value.(*storedJob)
			if j.status == jobDone || j.status == jobFailed {
				st.order.Remove(el)
				delete(st.byID, j.id)
				evicted = true
				break
			}
		}
		if !evicted {
			return // nothing evictable; allow transient overshoot
		}
	}
}
