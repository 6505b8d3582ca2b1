// Benchmarks regenerating every experiment in EXPERIMENTS.md, the index of
// the paper's comparative claims. Each experiment is one entry of the
// registry (internal/experiments) and each function below is a one-line
// view of it: a registry row is one sub-benchmark, run with ops = b.N
// through the same function cmd/tcabench runs, reporting the entry's
// columns with "_" spelled "-" (sim_us_op → sim-us-op). The file is an
// external test package because the registry imports tca.
package tca_test

import (
	"testing"

	"tca/internal/experiments"
	"tca/internal/grid"
)

// benchExperiment runs one registry entry's table rows as sub-benchmarks
// named by row key: one sample per sub-benchmark at ops = b.N under the
// default seed, rendered through the same summary row as tcabench -json
// and reported column by column.
func benchExperiment(b *testing.B, id string) {
	for _, e := range experiments.All() {
		if e.Experiment != id {
			continue
		}
		for _, row := range e.Rows(false) {
			b.Run(row.Name(), func(b *testing.B) {
				spec := e.Spec
				spec.Ops, spec.List = b.N, []grid.Row{row}
				res := grid.Run(spec, e.Run, nil)[0]
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				metrics := res.BenchRow(spec).Metrics
				for _, key := range e.Columns {
					if v, ok := metrics[key]; ok {
						b.ReportMetric(v, experiments.Unit(key))
					}
				}
			})
		}
	}
}

func BenchmarkF1_TaxonomyMatrix(b *testing.B)        { benchExperiment(b, "f1") }
func BenchmarkE1_ActorTxnOverhead(b *testing.B)      { benchExperiment(b, "e1") }
func BenchmarkE2_DeliveryGuarantees(b *testing.B)    { benchExperiment(b, "e2") }
func BenchmarkE4_SharedVsPerServiceDB(b *testing.B)  { benchExperiment(b, "e4") }
func BenchmarkE5_EmbeddedVsExternal(b *testing.B)    { benchExperiment(b, "e5") }
func BenchmarkE6_ColdStart(b *testing.B)             { benchExperiment(b, "e6") }
func BenchmarkE7_IsolationAnomalies(b *testing.B)    { benchExperiment(b, "e7") }
func BenchmarkE8_CheckpointRecovery(b *testing.B)    { benchExperiment(b, "e8") }
func BenchmarkE9_IdempotencyOverhead(b *testing.B)   { benchExperiment(b, "e9") }
func BenchmarkE10_OpenVsClosedLoop(b *testing.B)     { benchExperiment(b, "e10") }
func BenchmarkE16_CorePartitionScaling(b *testing.B) { benchExperiment(b, "e16") }
func BenchmarkE17_TPCCMatrix(b *testing.B)           { benchExperiment(b, "e17") }
func BenchmarkE18_MarketplaceMatrix(b *testing.B)    { benchExperiment(b, "e18") }
func BenchmarkE19_SocialMatrix(b *testing.B)         { benchExperiment(b, "e19") }
func BenchmarkE20_ConcurrencyMatrix(b *testing.B)    { benchExperiment(b, "e20") }
func BenchmarkE21_LiveAuditOverhead(b *testing.B)    { benchExperiment(b, "e21") }
func BenchmarkE22_DurabilityFrontier(b *testing.B)   { benchExperiment(b, "e22") }
func BenchmarkE23_OverloadFrontier(b *testing.B)     { benchExperiment(b, "e23") }
func BenchmarkE24_GeoFrontier(b *testing.B)          { benchExperiment(b, "e24") }
