package main

import (
	"fmt"
	"runtime"
	"sync"

	"idebench/internal/dataset"
	"idebench/internal/groundtruth"
	"idebench/internal/query"
	"idebench/internal/workflow"
)

// poolSeed fixes the dataset, the workflow pool and its replay order:
// every run explores the same data with the same workflows, and the
// workload seed draws only the Poisson arrival schedule, so a run-to-run
// difference is the system's, not the query mix's.
const poolSeed = 1

// numTypes is the number of workflow types GenerateSet emits: the four pure
// types plus mixed.
var numTypes = len(workflow.AllTypes) + 1

// step is one interaction of a session's replay: the queries it starts
// together plus the link/discard notifications it carries. begin marks the
// first interaction of a workflow, before which the session calls
// WorkflowStart.
type step struct {
	typ     workflow.Type
	begin   bool
	queries []*query.Query
	link    *[2]string
	discard string
}

// stream is the query stream shared by every workload: the paper's
// generated workflows (all four pure types plus mixed), expanded through the
// viz dependency graph and dealt to the client sessions so that the types
// rotate within a session and the sessions start at staggered types: with
// S sessions, session s's k-th workflow is of type (5s/S + k) mod 5. Each
// session replays its own steps in order and wraps around when it runs out.
type stream struct {
	sessions     [][]step
	interactions int
	queries      int
	signatures   int
}

// buildStream generates count workflows per type from the fixed pool seed,
// deals them to the sessions and expands them.
func buildStream(db *dataset.Database, count, interactions, sessions int) (*stream, error) {
	gen, err := workflow.NewGenerator(db.Fact)
	if err != nil {
		return nil, err
	}
	flows, err := gen.GenerateSet(count, interactions, poolSeed)
	if err != nil {
		return nil, err
	}
	// GenerateSet emits the workflows grouped by type, count of each.
	byType := make([][]*workflow.Workflow, numTypes)
	for t := range byType {
		byType[t] = flows[t*count : (t+1)*count]
	}
	st := &stream{sessions: make([][]step, sessions)}
	sigs := map[string]bool{}
	for k, left := 0, len(flows); left > 0; k++ {
		for s := 0; s < sessions && left > 0; s++ {
			t := (numTypes*s/sessions + k) % numTypes
			if len(byType[t]) == 0 {
				continue
			}
			f := byType[t][0]
			byType[t] = byType[t][1:]
			left--
			g := workflow.NewGraph()
			for j, in := range f.Interactions {
				eff, err := g.Apply(in)
				if err != nil {
					return nil, fmt.Errorf("workflow %s interaction %d: %w", f.Name, j, err)
				}
				stp := step{typ: f.Type, begin: j == 0, queries: eff.Queries, link: eff.NewLink, discard: eff.Discarded}
				st.sessions[s] = append(st.sessions[s], stp)
				if len(eff.Queries) > 0 {
					st.interactions++
				}
				for _, q := range eff.Queries {
					st.queries++
					sigs[q.Signature()] = true
				}
			}
		}
	}
	st.signatures = len(sigs)
	return st, nil
}

// replayed returns the steps session i issues under the schedule, one per
// arrival of the session, wrapping around its workflows.
func (st *stream) replayed(sch *schedule, i int) []step {
	steps := st.sessions[i]
	out := make([]step, len(sch.session(i)))
	for j := range out {
		out[j] = steps[j%len(steps)]
	}
	return out
}

// checkCoverage refuses a schedule under which some session's scored
// steps miss a workflow type: the quality metrics would then describe part
// of the paper's mix only. The scored steps do not depend on the seed, so
// this holds for every seed or for none.
func (st *stream) checkCoverage(sch *schedule) error {
	for i := range st.sessions {
		seen := map[workflow.Type]bool{}
		ks := sch.session(i)
		for j, s := range st.replayed(sch, i) {
			if ks[j] >= sch.warm && len(s.queries) > 0 {
				seen[s.typ] = true
			}
		}
		if len(seen) < numTypes {
			return fmt.Errorf("session %d scores %d of the %d workflow types", i, len(seen), numTypes)
		}
	}
	return nil
}

// warmTruth computes, before anything is timed and on GOMAXPROCS workers,
// the exact answer of every query the schedule issues.
func (st *stream) warmTruth(gt *groundtruth.Cache, sch *schedule) error {
	work := make(chan *query.Query)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				if _, err := gt.Get(q); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range st.sessions {
		for _, s := range st.replayed(sch, i) {
			for _, q := range s.queries {
				work <- q
			}
		}
	}
	close(work)
	wg.Wait()
	return firstErr
}
