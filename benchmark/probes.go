package main

import (
	"time"

	"ompssgo/internal/core"
	"ompssgo/ompss"
)

// The probes time single layers directly, on one goroutine, so a change
// to the dependence tracker or the scheduler shows here before it is
// diluted by everything a fine-grain pass does around it.

const probeTasks = 20000

// perOp runs prep (untimed) and fn (timed) five times and returns fn's
// median ns per operation.
func perOp(ops int, prep, fn func()) float64 {
	var runs []int64
	for i := 0; i < 5; i++ {
		prep()
		start := time.Now()
		fn()
		runs = append(runs, time.Since(start).Nanoseconds())
	}
	return medianInt(runs) / float64(ops)
}

// coreProbes times Graph.Submit and Graph.Finish over eight registered
// InOut chains, and the scheduler's push/pop and steal paths.
func coreProbes(m map[string]float64) {
	var submit, finish []int64
	for run := 0; run < 5; run++ {
		g := core.NewGraph()
		cells := make([]paddedCounter, 8)
		ds := make([]*core.Datum, len(cells))
		for i := range cells {
			ds[i] = g.Register(&cells[i])
		}
		tasks := make([]*core.Task, probeTasks)
		for i := range tasks {
			d := ds[i%len(ds)]
			tasks[i] = &core.Task{ID: uint64(i + 1), Accesses: []core.Access{{Key: d.Key, Mode: core.InOut, Datum: d}}}
		}
		start := time.Now()
		for _, t := range tasks {
			g.Submit(t)
		}
		submit = append(submit, time.Since(start).Nanoseconds())
		// Submission order is a topological order of the chains, so each
		// task is ready by the time its turn comes.
		start = time.Now()
		for _, t := range tasks {
			g.MarkRunning(t, 0)
			g.Finish(t, nil)
		}
		finish = append(finish, time.Since(start).Nanoseconds())
	}
	m["core.graph_submit_ns"] = medianInt(submit) / probeTasks
	m["core.graph_finish_ns"] = medianInt(finish) / probeTasks

	tasks := make([]*core.Task, probeTasks)
	for i := range tasks {
		tasks[i] = &core.Task{ID: uint64(i + 1)}
	}
	// Half the tasks take the submission path (global FIFO), half the
	// release path (the worker's own deque); worker 0 pops them all.
	var s *core.Sched
	fresh := func() { s = core.NewSched(2, core.DefaultPolicy(), 1) }
	m["core.sched_push_pop_ns"] = perOp(probeTasks, fresh, func() {
		for i, t := range tasks {
			if i%2 == 0 {
				s.PushSubmit(t)
			} else {
				s.PushReady(t, 0)
			}
		}
		for range tasks {
			s.Pop(0)
		}
	})
	// Everything is released on worker 1; worker 0 has to steal each task.
	m["core.sched_steal_ns"] = perOp(probeTasks, func() {
		fresh()
		for _, t := range tasks {
			s.PushReady(t, 1)
		}
	}, func() {
		for range tasks {
			s.Pop(0)
		}
	})
}

// spawnProbe is the uncontended spawn → run → finish path: one worker (the
// master itself, inside Taskwait), an empty body, a registered datum.
func spawnProbe() float64 {
	rt := ompss.New(ompss.Workers(1))
	defer rt.Shutdown()
	var cell paddedCounter
	d := rt.Register(&cell)
	body := func(*ompss.TC) {}
	return perOp(probeTasks, func() {}, func() {
		for i := 0; i < probeTasks; i++ {
			rt.Task(body, d.AsInOut())
		}
		rt.Taskwait()
	})
}
