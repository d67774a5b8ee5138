package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"testing"

	"ncc/internal/obs"
)

// shippedPins are the golden outputs of every file under scenarios/: the
// canonical scenario hash, the canonical trace hash, and the sha256 of the
// file's NDJSON records with the "scenario" echo field removed (so a file
// may be respelled without moving its pin, as long as it means the same
// computation).
var shippedPins = map[string]struct{ hash, trace, records string }{
	"bfs-crash-recover.json": {
		hash:    "f2eac1f704094a0c6260c77fa3917f16b0889d0243e73549be17742a180966bd",
		trace:   "sha256:93b36d060e32f93702fdbfadb53c619f31a36fc234e4bc56627c090028385e9b",
		records: "61a454317ec776955598f9b9723eb9d11540d6fe44c2ec034529e0a37689042a",
	},
	"bfs-faulty.json": {
		hash:    "a45c3d8cbda40d218ec2cd5bc0f278e90ec35ae3c2356a7826a159c4e52dee43",
		trace:   "sha256:b662a899bf56f41c1092c8102d469064015ca3fbfb44d108a16077d8a4c6cd70",
		records: "a7dfbb81703403b20dc43a6287ad8fbf80c99e00e0f9bb68f75ec3bc474039ad",
	},
	"coloring-churn.json": {
		hash:    "6748b55a9654035414020004b67c31d5669710f767d833941c4098717da884f8",
		trace:   "sha256:e35dc57e7b9363097f82c0fec16076760207d25884e307074a9662646cc85870",
		records: "d54819b4d88320554fff36ada38a3aba7986225ce339ffdad7611707e10d5013",
	},
	"coloring-torus.json": {
		hash:    "2a0360e4bf9ea17fd0ae9a76d436cd57499c0f6ecf593f745803ef261b85c947",
		trace:   "sha256:d9d40ff9c66c1139badb3284c45f9e609b210fcf590fb06bfb4a22b3adc59c3d",
		records: "2da0e693bb8830ddedd1502154a5f615c72134a3ccb1a4f87ce6faf8ad35ca96",
	},
	"mis-sweep.json": {
		hash:    "9006e876081cf36b9fddc96ef87ba3170b003f4d856c19c30a850f9b468bda2c",
		trace:   "sha256:0bb49dc155a534107ae6e5f9429f951e2f443aaf349ff1d4d656130c90475c40",
		records: "be7dfd15fa5e726b82af3630e03b251978321da052c4f1eb69b9be1f45583b46",
	},
	"mst-adversarial.json": {
		hash:    "28ab0539ad6f13aeef10e12874e4a323a1100c94259c6fe080f0a8be99b1d37e",
		trace:   "sha256:ac546916ec7f6bb835b04119d39e329048dd64f74f170445646431ff618ed273",
		records: "668b8d9e2513ef88f9a596dfdacfcd7ea3b6021fb1d4fd360a78e928e2e1a94f",
	},
	"mst-faulty.json": {
		hash:    "f00e63870084e31836659e3512850a669a35d00ce7cce878b5bc3a8ec69eceed",
		trace:   "sha256:35d3a2329e5a611f35c8c8b2fcf9bbdf1056d3d55ca63036c5cd7889bc7d6552",
		records: "ac819b77b2f34fc2523bc6808283d76b8d561c23354814a3ea35d5b1e3ba49fc",
	},
	"orientation-pa.json": {
		hash:    "48e29956d128ff5eac8623382d8ede37b96512c6c4269c572b07f83e1388118c",
		trace:   "sha256:aeb70b00dd486040b2a5e6503dc4a489eba9a5f0f8d844e65ba2ae2716ca0f1a",
		records: "010f6c459ff16be41968b818c78af8a95e168f3bc5cc77d43a7465ce64b2f91e",
	},
}

// recordsHash is the sha256 of recs as NDJSON lines, each with its
// "scenario" echo field removed.
func recordsHash(t *testing.T, recs []Record) string {
	t.Helper()
	h := sha256.New()
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(b, &fields); err != nil {
			t.Fatal(err)
		}
		delete(fields, "scenario")
		if b, err = json.Marshal(fields); err != nil {
			t.Fatal(err)
		}
		h.Write(append(b, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestShippedScenarioFiles pins that every example under scenarios/ parses
// strictly, validates against the registries, and runs at its (small) size:
// one record per expanded run. Fault-free runs must verify; fault-injection
// demos must degrade instead of failing — every record carries a degradation
// report whose survivor verdict is clean (that is the robustness contract the
// demos exist to show). Each file's hashes must equal its shippedPins entry.
func TestShippedScenarioFiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(shippedPins) {
		t.Fatalf("found %d scenario files, want the %d pinned examples", len(files), len(shippedPins))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			s, err := Load(path)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			pin, ok := shippedPins[filepath.Base(path)]
			if !ok {
				t.Fatalf("no golden pin for %s", path)
			}
			if h, err := s.Hash(); err != nil {
				t.Fatalf("Hash: %v", err)
			} else if h != pin.hash {
				t.Errorf("canonical hash %s, want %s", h, pin.hash)
			}
			expanded := s.Expand()
			if n := sizeOf(s); n > 256 {
				t.Fatalf("example graph size %d is not small; keep shipped scenarios fast", n)
			}
			faulty := len(s.Faults.specs()) > 0
			col := &obs.Collector{}
			var recs []Record
			for _, c := range expanded {
				rec, err := RunTraced(c, col, RunOpts{})
				if err != nil {
					rec.Error = err.Error()
				}
				recs = append(recs, rec)
			}
			if h := col.Hash(); h != pin.trace {
				t.Errorf("trace hash %s, want %s", h, pin.trace)
			}
			if h := recordsHash(t, recs); h != pin.records {
				t.Errorf("records hash %s, want %s", h, pin.records)
			}
			for i, rec := range recs {
				if rec.Error != "" {
					t.Errorf("run %d failed: %s", i, rec.Error)
					continue
				}
				if !faulty {
					if !rec.Verified {
						t.Errorf("run %d not verified: %s", i, rec.VerifyErr)
					}
					continue
				}
				if rec.Degradation == nil {
					t.Errorf("run %d: faulted record has no degradation report", i)
					continue
				}
				if !rec.Degradation.SurvivorsOK {
					t.Errorf("run %d: survivors inconsistent: %s", i, rec.Degradation.Detail)
				}
			}
		})
	}
}

// sizeOf estimates the largest node count a scenario can reach, covering the
// families the shipped examples use (n-, rows*cols-, and sweep-sized).
func sizeOf(s Scenario) int {
	n := 0
	if v, ok := s.Graph.Params["n"]; ok {
		n = int(v)
	}
	rows, hasRows := s.Graph.Params["rows"]
	cols, hasCols := s.Graph.Params["cols"]
	if hasRows && hasCols {
		n = max(n, int(rows)*int(cols))
	}
	if s.Sweep != nil {
		for _, v := range s.Sweep.N {
			n = max(n, v)
		}
	}
	if n == 0 {
		n = 64 // family default
	}
	return n
}
