// Command ncccampaign runs experiment campaigns: multi-scenario suites that
// compare NCC algorithms against their centralized baselines (and k-machine
// projections) across a shared sweep, merging every unit's records into one
// comparative report.
//
// A campaign runs either locally (each unit through the in-process engine) or
// on a running nccd (POST /v1/campaigns — units flow through the daemon's
// result cache and, on a coordinator, across the worker fleet). The report is
// deterministic — it contains no wall-clock fields — so both paths emit
// byte-identical -json output for the same spec. Each report row carries the
// unit's canonical telemetry-trace hash ("trace": "sha256:..."), the join key
// to the NDJSON traces served at /v1/jobs/{id}/trace and analyzed by
// ncctrace; the hash is identical whether the unit ran locally, on a daemon,
// or out of the result cache.
//
//	ncccampaign -spec campaigns/compare-small.json
//	ncccampaign -spec campaigns/compare-small.json -json
//	ncccampaign -spec campaigns/compare-small.json -remote http://127.0.0.1:9876 -token s3cret
//
// The exit status is 1 when any run errors or fails verification, so a
// campaign run is also a health check.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ncc/internal/campaign"
	"ncc/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ncccampaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "campaign spec JSON `file` (required)")
	remote := fs.String("remote", "", "run on the nccd at this base URL instead of locally")
	token := fs.String("token", "", "bearer token for a token-protected nccd (-remote)")
	jsonOut := fs.Bool("json", false, "emit the report as one JSON line instead of the text table")
	poll := fs.Duration("poll", 200*time.Millisecond, "remote: status poll interval")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *specPath == "" {
		fmt.Fprintln(stderr, "ncccampaign: -spec is required")
		return 2
	}

	sp, err := campaign.Load(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "ncccampaign:", err)
		return 2
	}
	// Refs resolve relative to the spec file, client-side: the daemon only
	// accepts inline scenarios (it has no view of this filesystem).
	if err := sp.Resolve(filepath.Dir(*specPath)); err != nil {
		fmt.Fprintln(stderr, "ncccampaign:", err)
		return 2
	}
	if err := sp.Validate(); err != nil {
		fmt.Fprintln(stderr, "ncccampaign:", err)
		return 2
	}

	var rep campaign.Report
	var rawReport []byte // the server's report bytes, passed through verbatim
	if *remote != "" {
		rawReport, err = runRemote(*remote, *token, sp, *poll, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "ncccampaign:", err)
			return 1
		}
		if err := json.Unmarshal(rawReport, &rep); err != nil {
			fmt.Fprintln(stderr, "ncccampaign: decoding report:", err)
			return 1
		}
	} else {
		rep, err = campaign.Execute(sp, campaign.Local())
		if err != nil {
			fmt.Fprintln(stderr, "ncccampaign:", err)
			return 1
		}
	}

	if *jsonOut {
		if rawReport != nil {
			// Verbatim server bytes: Encoder.Encode on the daemon equals
			// Marshal+"\n" here, so local and remote output stay
			// byte-identical.
			stdout.Write(rawReport)
		} else {
			line, err := json.Marshal(rep)
			if err != nil {
				fmt.Fprintln(stderr, "ncccampaign:", err)
				return 1
			}
			fmt.Fprintln(stdout, string(line))
		}
	} else if err := campaign.RenderText(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "ncccampaign:", err)
		return 1
	}

	if rep.Errors > 0 {
		fmt.Fprintf(stderr, "ncccampaign: %d run error(s)\n", rep.Errors)
		return 1
	}
	if rep.Verified < rep.Runs {
		fmt.Fprintf(stderr, "ncccampaign: %d/%d runs verified\n", rep.Verified, rep.Runs)
		return 1
	}
	return 0
}

// runRemote submits the resolved spec to the daemon and polls the campaign to
// its terminal state, returning the report endpoint's raw JSON bytes.
func runRemote(base, token string, sp campaign.Spec, poll time.Duration, stderr io.Writer) ([]byte, error) {
	cl := service.NewClient(base, token)
	ctx := context.Background()
	info, err := cl.SubmitCampaign(ctx, sp)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "ncccampaign: campaign %s submitted to %s\n", info.ID, base)
	for info.State != service.StateDone && info.State != service.StateFailed {
		time.Sleep(poll)
		if info, err = cl.Campaign(ctx, info.ID); err != nil {
			return nil, err
		}
	}
	if info.State == service.StateFailed {
		return nil, fmt.Errorf("campaign %s failed: %s", info.ID, info.Error)
	}
	return cl.CampaignReport(ctx, info.ID)
}
