package harness

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestForEachPanicContainment: a panicking job surfaces as a typed
// *TaskPanicError from forEach — on the serial path and the pooled path
// — instead of crashing the process.
func TestForEachPanicContainment(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		err := forEach(parallelism, 8, func(i int) error {
			if i == 3 {
				panic("poisoned task")
			}
			return nil
		})
		var pe *TaskPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallelism %d: err = %v, want TaskPanicError", parallelism, err)
		}
		if pe.Index != 3 || fmt.Sprint(pe.Value) != "poisoned task" {
			t.Fatalf("parallelism %d: panic diagnostic %+v", parallelism, pe)
		}
		if !strings.Contains(string(pe.Stack), "pool_test.go") {
			t.Fatalf("parallelism %d: stack does not name the panic site", parallelism)
		}
	}
}

// TestRunTasksCompletesSweep: one poisoned task fails typed while every
// other task of the fan-out still runs — the campaign-driver guarantee.
func TestRunTasksCompletesSweep(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		var ran atomic.Int64
		boom := errors.New("boom")
		errs := RunTasks(parallelism, 16, func(i int) error {
			ran.Add(1)
			switch i {
			case 5:
				panic("poisoned task")
			case 9:
				return boom
			}
			return nil
		})
		if got := ran.Load(); got != 16 {
			t.Fatalf("parallelism %d: ran %d of 16 tasks", parallelism, got)
		}
		var pe *TaskPanicError
		if !errors.As(errs[5], &pe) || pe.Index != 5 {
			t.Fatalf("parallelism %d: errs[5] = %v, want TaskPanicError{Index:5}", parallelism, errs[5])
		}
		if !errors.Is(errs[9], boom) {
			t.Fatalf("parallelism %d: errs[9] = %v, want boom", parallelism, errs[9])
		}
		for i, err := range errs {
			if i != 5 && i != 9 && err != nil {
				t.Fatalf("parallelism %d: task %d unexpectedly failed: %v", parallelism, i, err)
			}
		}
	}
}
