package campaign

import (
	"ncc/internal/obs"
	"ncc/internal/scenario"
)

// Execute expands the campaign, runs every distinct unit once in process
// (units sharing a canonical hash share one execution and one result), and
// builds the report. Units run in deterministic expansion order. A failed run
// is recorded in its Record.Error. Each unit's telemetry is collected, so
// the report's trace refs match what a daemon executing the same units would
// produce.
func Execute(sp Spec) (Report, error) {
	units, err := sp.Expand()
	if err != nil {
		return Report{}, err
	}
	records := make(map[string][]scenario.Record, len(units))
	traces := make(map[string]string, len(units))
	for _, u := range units {
		if _, done := records[u.Hash]; done {
			continue
		}
		col := &obs.Collector{}
		var recs []scenario.Record
		for _, c := range u.Scenario.Expand() {
			rec, err := scenario.RunTraced(c, col, scenario.RunOpts{})
			if err != nil {
				rec.Error = err.Error()
			}
			recs = append(recs, rec)
		}
		records[u.Hash] = recs
		if len(col.Lines()) > 0 {
			traces[u.Hash] = col.Hash()
		}
	}
	return BuildReport(sp.Name, units, records, traces)
}
