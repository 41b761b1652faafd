package experiments

import "snapea/internal/metrics"

// NamedExperiment pairs an experiment's registry name with its runner.
type NamedExperiment struct {
	Name string
	Run  func()
}

// Experiments returns every experiment in paper order — the body of
// `snapea-bench -exp all`, exposed as data so the command can pick one
// by name.
func (s *Suite) Experiments() []NamedExperiment {
	return []NamedExperiment{
		{"fig1", func() { s.Fig1() }},
		{"fig2", func() { s.Fig2() }},
		{"table1", func() { s.Table1() }},
		{"table2", func() { s.Table2() }},
		{"table3", func() { s.Table3() }},
		{"fig8", func() { s.Fig8() }},
		{"fig9", func() { s.Fig9() }},
		{"fig10", func() { s.Fig10() }},
		{"table4", func() { s.Table4() }},
		{"table5", func() { s.Table5() }},
		{"fig11", func() { s.Fig11() }},
		{"fig12", func() { s.Fig12() }},
		{"ablations", func() {
			s.AblationPrefix()
			s.AblationNegOrder()
			s.AblationLaneSync()
			s.AblationQuantization()
			s.AblationFC()
		}},
		{"pruning", func() { s.PruningExperiment() }},
		{"sparsity", func() { s.SparsityComparison() }},
		{"faults", func() { s.FaultSweep() }},
	}
}

// RunList executes the named experiments in order with panic recovery:
// a panicking or aborted experiment is recorded as a Failure without
// stopping the rest (a cancelled context stops the batch, since every
// remaining experiment would fail the same way). Each experiment runs
// in its own "experiment/<name>" span. It returns the failures.
func (s *Suite) RunList(list []NamedExperiment) []Failure {
	for i, e := range list {
		if err := s.ctx().Err(); err != nil {
			return s.Failures()
		}
		if i > 0 {
			s.blank()
		}
		sp := metrics.StartSpan("experiment/" + e.Name)
		err := s.Safe(e.Name, e.Run)
		sp.End()
		if err != nil && s.ctx().Err() != nil {
			return s.Failures()
		}
	}
	return s.Failures()
}
