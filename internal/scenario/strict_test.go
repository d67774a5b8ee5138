package scenario

import (
	"strings"
	"testing"
)

func TestDecodeStrictUnknownFields(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error; "" means decode must succeed
	}{
		{
			name: "model typo capfator",
			in:   `{"algo":"mis","graph":{"family":"kforest"},"model":{"capfator":4}}`,
			want: `unknown field "model.capfator" (model has capfactor,`,
		},
		{
			name: "removed send-cap switch",
			in:   `{"algo":"mis","graph":{"family":"kforest"},"model":{"nonstrict":true}}`,
			want: `unknown field "model.nonstrict" (model has capfactor, maxrounds, maxwords, seed, workers)`,
		},
		{
			name: "top-level typo",
			in:   `{"algos":"mis","graph":{"family":"kforest"}}`,
			want: `unknown field "algos" (scenario has algo,`,
		},
		{
			name: "faults typo",
			in:   `{"algo":"bfs","graph":{"family":"grid"},"faults":{"droprob":0.1}}`,
			want: `unknown field "faults.droprob" (faults has models)`,
		},
		{
			name: "legacy faults knob",
			in:   `{"algo":"bfs","graph":{"family":"grid"},"faults":{"dropprob":0.1}}`,
			want: `unknown field "faults.dropprob" (faults has models)`,
		},
		{
			name: "sweep typo",
			in:   `{"algo":"mis","graph":{"family":"kforest"},"sweep":{"seed":[1]}}`,
			want: `unknown field "sweep.seed" (sweep has capfactor, faults, n, seeds)`,
		},
		{
			name: "graph spec typo",
			in:   `{"algo":"mis","graph":{"fam":"kforest"}}`,
			want: `unknown field "graph.fam" (graph has family, file, params, seed)`,
		},
		{
			name: "valid scenario with params passes",
			in:   `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2}},"model":{"capfactor":4},"sweep":{"seeds":[1,2]}}`,
			want: "",
		},
		{
			name: "free-form param names are not field errors",
			in:   `{"algo":"mis","graph":{"family":"kforest","params":{"definitely-not-a-field":1}}}`,
			want: "", // Validate rejects the param name, not Decode
		},
		{
			name: "case-insensitive match like encoding/json",
			in:   `{"Algo":"mis","graph":{"Family":"kforest"}}`,
			want: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.in))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Decode: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Decode accepted %s, want error containing %q", tc.in, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestDecodeTypoDoesNotRunDefaults is the regression the strict decoder
// exists for: a misspelled model field must fail the load, not silently run
// with the default capacity.
func TestDecodeTypoDoesNotRunDefaults(t *testing.T) {
	_, err := Decode([]byte(`{"algo":"mis","graph":{"family":"kforest","params":{"n":16}},"model":{"capfator":1}}`))
	if err == nil {
		t.Fatal("scenario with misspelled model field decoded cleanly")
	}
}
