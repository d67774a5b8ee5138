package campaign

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"ncc/internal/scenario"
)

// Report is the deterministic comparative digest of one campaign run: it is
// built purely from the units' Records (rounds, messages, words, k-machine
// accounting, verification), never from wall-clock measurements, so the same
// campaign yields byte-identical report JSON locally, remotely, and from
// cache. It carries no timing: the package tests pin the sha256 of each
// shipped campaign's report, which is the campaigns' one regression check.
type Report struct {
	Campaign string        `json:"campaign"`
	Entries  []EntryReport `json:"entries"`
	Units    int           `json:"units"`
	Runs     int           `json:"runs"`
	Errors   int           `json:"errors"`
	Verified int           `json:"verified"`
}

// EntryReport compares one entry's variants. Speedup is the headline column:
// baseline rounds per NCC round (summed over the entry's runs), present when
// the entry has both variants and the NCC variant completed rounds.
type EntryReport struct {
	Name     string          `json:"name"`
	Variants []VariantReport `json:"variants"`
	Speedup  float64         `json:"speedup,omitempty"`
}

// VariantReport aggregates the Records of one unit (one canonical-hashed
// scenario, possibly a sweep of many runs).
type VariantReport struct {
	Variant       Variant `json:"variant"`
	Algo          string  `json:"algo"`
	Hash          string  `json:"hash"`
	Runs          int     `json:"runs"`
	Errors        int     `json:"errors"`
	Verified      int     `json:"verified"`
	Rounds        int64   `json:"rounds"`
	Messages      int64   `json:"messages"`
	Words         int64   `json:"words"`
	KRounds       int64   `json:"kRounds,omitempty"`
	CrossMessages int64   `json:"crossMessages,omitempty"`
	// Trace is the content hash of the unit's telemetry trace ("sha256:...").
	// It is a cross-surface correlation key, not a metric: the same unit
	// yields the same hash locally, on a daemon, and from cache, so a report
	// row can be joined to its archived trace file.
	Trace string `json:"trace,omitempty"`
}

// BuildReport merges per-unit Records into the comparative report. records
// maps canonical scenario hashes to the unit's Record slice; every unit must
// be present (deduplicated units share one entry). traces optionally maps the
// same hashes to trace content hashes; units absent from it simply omit the
// trace ref (nil disables trace refs entirely).
func BuildReport(name string, units []Unit, records map[string][]scenario.Record, traces map[string]string) (Report, error) {
	r := Report{Campaign: name, Units: len(units)}
	byEntry := map[string]*EntryReport{}
	for _, u := range units {
		recs, ok := records[u.Hash]
		if !ok {
			return r, fmt.Errorf("entry %s, %s variant: no records for hash %.12s", u.Entry, u.Variant, u.Hash)
		}
		vr := VariantReport{Variant: u.Variant, Algo: u.Scenario.Algo, Hash: u.Hash, Runs: len(recs), Trace: traces[u.Hash]}
		for _, rec := range recs {
			if rec.Error != "" {
				vr.Errors++
			}
			if rec.Verified {
				vr.Verified++
			}
			vr.Rounds += int64(rec.Stats.Rounds)
			vr.Messages += rec.Stats.Messages
			vr.Words += rec.Stats.Words
			if rec.KMachine != nil {
				vr.KRounds += int64(rec.KMachine.KRounds)
				vr.CrossMessages += rec.KMachine.CrossMessages
			}
		}
		er := byEntry[u.Entry]
		if er == nil {
			r.Entries = append(r.Entries, EntryReport{Name: u.Entry})
			er = &r.Entries[len(r.Entries)-1]
			byEntry[u.Entry] = er
		}
		er.Variants = append(er.Variants, vr)
		r.Runs += vr.Runs
		r.Errors += vr.Errors
		r.Verified += vr.Verified
	}
	for i := range r.Entries {
		er := &r.Entries[i]
		var ncc, bl *VariantReport
		for j := range er.Variants {
			switch er.Variants[j].Variant {
			case VariantNCC:
				ncc = &er.Variants[j]
			case VariantBaseline:
				bl = &er.Variants[j]
			}
		}
		if ncc != nil && bl != nil && ncc.Rounds > 0 {
			er.Speedup = math.Round(float64(bl.Rounds)/float64(ncc.Rounds)*1000) / 1000
		}
	}
	return r, nil
}

// RenderText writes the human-readable report table.
func RenderText(w io.Writer, r Report) error {
	fmt.Fprintf(w, "campaign %s: %d entries, %d units, %d runs, %d verified, %d errors\n\n",
		r.Campaign, len(r.Entries), r.Units, r.Runs, r.Verified, r.Errors)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "entry\tvariant\talgo\truns\tok\trounds\tmessages\twords\tkrounds\tspeedup")
	for _, er := range r.Entries {
		for _, vr := range er.Variants {
			krounds := ""
			if vr.KRounds > 0 {
				krounds = fmt.Sprintf("%d", vr.KRounds)
			}
			speedup := ""
			if vr.Variant == VariantBaseline && er.Speedup > 0 {
				speedup = fmt.Sprintf("%.3fx", er.Speedup)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
				er.Name, vr.Variant, vr.Algo, vr.Runs, vr.Verified,
				vr.Rounds, vr.Messages, vr.Words, krounds, speedup)
		}
	}
	return tw.Flush()
}
