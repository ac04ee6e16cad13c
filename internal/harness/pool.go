package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The experiment harness fans its independent compile+simulate jobs out
// across a bounded worker pool. Every entry point takes a parallelism
// argument: 0 (or negative) selects runtime.GOMAXPROCS workers, 1 forces
// the fully serial path, and larger values bound the pool explicitly.
// Jobs write results into caller-owned slots keyed by job index, so the
// emitted rows are in the same deterministic order as a serial run
// regardless of scheduling; simulation itself is seeded and
// order-independent across jobs (jobs share no mutable state — each
// builds, compiles and runs its own module).

// effectiveParallelism resolves a requested parallelism to a concrete
// worker count.
func effectiveParallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// TaskPanicError is a job panic converted into a typed per-task error.
// A panicking (kernel × schedule) job in a campaign — a simulator bug,
// an out-of-range table index, a poisoned input — degrades to one
// failed task with the panic value and stack preserved, instead of
// killing the whole sweep's process: exactly the containment a
// long-running stress rig needs. errors.As surfaces it through any
// wrapping.
type TaskPanicError struct {
	// Index is the job index within the fan-out.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("task %d panicked: %v", e.Index, e.Value)
}

// SafeCall runs fn(i), converting a panic into a *TaskPanicError: the
// containment of one pool task, for a caller that runs several of its
// own items in one task and contains each.
func SafeCall(i int, fn func(i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &TaskPanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// runPool is the one worker loop: fn(i) for every i in [0, n) on at most
// parallelism workers, each call contained by SafeCall, every task's
// error (nil on success) returned in its slot. With stopOnErr, workers
// pick up no new task once one has failed; tasks in flight still
// complete.
func runPool(parallelism, n int, stopOnErr bool, fn func(i int) error) []error {
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || (stopOnErr && failed.Load()) {
				return
			}
			if errs[i] = SafeCall(i, fn); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	workers := min(effectiveParallelism(parallelism), n)
	if workers <= 1 {
		work()
		return errs
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return errs
}

// forEach runs the fan-out until a task fails and returns the
// lowest-index error, matching what the serial loop would have reported.
// A panicking job is a typed *TaskPanicError, not a crashed pool.
func forEach(parallelism, n int, fn func(i int) error) error {
	for _, err := range runPool(parallelism, n, true, fn) {
		if err != nil {
			return err
		}
	}
	return nil
}

// collect is forEach for the common driver shape — job i produces row i —
// returning the rows in job order, or the lowest-index error and no rows.
func collect[T any](parallelism, n int, job func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := forEach(parallelism, n, func(i int) (err error) {
		out[i], err = job(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunTasks runs every task to completion whatever the others do and
// returns every task's error slot, indexed by task: an error — or a
// panic, contained to a typed *TaskPanicError — does NOT stop the
// fan-out. The campaign driver (cmd/diffhunt) uses it so one
// pathological cell yields one typed finding while the sweep finishes.
func RunTasks(parallelism, n int, fn func(i int) error) []error {
	return runPool(parallelism, n, false, fn)
}
