package service

import "sync"

// fairQueue is one shard's job queue: FIFO per client, round-robin across
// clients, so one client's burst cannot starve another's single job.
// Capacity (backpressure) is enforced globally by the Service, not here.
//
// After close, pop keeps draining whatever is queued and returns ok=false
// only once the queue is empty — graceful drain pops jobs to completion,
// hard shutdown pops them with their cancel flag already set.
type fairQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	fifos  map[string][]*Job // pending jobs per client
	ring   []string          // clients with pending work, rotation order
	rr     int               // next ring slot to serve
	n      int
	closed bool
}

func newFairQueue() *fairQueue {
	q := &fairQueue{fifos: map[string][]*Job{}}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job; it returns false when the queue is closed.
func (q *fairQueue) push(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	fifo := append(q.fifos[j.client], j)
	q.fifos[j.client] = fifo
	if len(fifo) == 1 {
		// Client had no pending work: join the rotation.
		q.ring = append(q.ring, j.client)
	}
	q.n++
	q.cond.Signal()
	return true
}

// pop blocks until a job is available (round-robin over clients) or the
// queue is closed and empty.
func (q *fairQueue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
	if q.rr >= len(q.ring) {
		q.rr = 0
	}
	client := q.ring[q.rr]
	fifo := q.fifos[client]
	j := fifo[0]
	fifo[0] = nil
	if len(fifo) == 1 {
		delete(q.fifos, client)
		// Remove the client from the ring; the next client slides into this
		// slot, so rr stays put.
		q.ring = append(q.ring[:q.rr], q.ring[q.rr+1:]...)
	} else {
		q.fifos[client] = fifo[1:]
		q.rr++
	}
	q.n--
	return j, true
}

// close wakes all waiters; see the type comment for drain semantics.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// len returns the number of queued jobs.
func (q *fairQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}
