// Command ataqc-bench load-tests a running ataqcd daemon: it sweeps the
// load levels of a JSON workload spec (-workload, see examples/workloads),
// drives each level with a fleet of concurrent clients (internal/loadgen)
// sampling the spec's problem mix, optionally weaves hostile-client chaos
// scenarios (internal/faultinject network faults) into the stream, and
// writes a BENCH_service.json report with per-level p50/p90/p99 latency and
// shed/degrade counts.
//
// Exit status is the CI gate: non-zero when the daemon died during the run
// (healthz check), when any chaos scenario elicited an unstructured error,
// or when -max-p99-ms is set and any level's p99 exceeds it.
//
// Example:
//
//	ataqcd -addr 127.0.0.1:8080 -chaos &
//	ataqc-bench -url http://127.0.0.1:8080 \
//	    -workload examples/workloads/mixed-chaos.json -out BENCH_service.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/ata-pattern/ataqc/internal/loadgen"
)

// benchReport is the BENCH_service.json schema (see EXPERIMENTS.md).
type benchReport struct {
	URL string `json:"url"`
	// Workload and Seed are the spec's name and seed.
	Workload string            `json:"workload,omitempty"`
	Seed     int64             `json:"seed"`
	Levels   []*loadgen.Report `json:"levels"`
	DaemonOK bool              `json:"daemonOk"`
	// Metrics is the daemon-side view of the run, present when
	// -scrape-interval is set: the final metricsz scrape (flattened
	// Prometheus samples) plus scrape bookkeeping.
	Metrics *metricsSection `json:"metrics,omitempty"`
}

// metricsSection summarizes the metricsz scrapes taken during the run.
type metricsSection struct {
	ScrapeIntervalSec float64 `json:"scrapeIntervalSec"`
	Scrapes           int     `json:"scrapes"`
	ScrapeErrors      int     `json:"scrapeErrors"`
	// Final maps each sample of the last successful scrape — the labeled
	// Prometheus series name exactly as exposed — to its value.
	Final map[string]float64 `json:"final,omitempty"`
}

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8080", "daemon base URL")
		out      = flag.String("out", "", "write the JSON report here ('' = stdout)")
		maxP99   = flag.Float64("max-p99-ms", 0, "fail when any level's p99 exceeds this many ms (0 = no gate)")
		scrape   = flag.Duration("scrape-interval", 0, "scrape the daemon's metricsz at this interval during the run and embed the final scrape in the report (0 = off)")
		workload = flag.String("workload", "", "JSON workload spec: the load levels and problem mix to run (required; see examples/workloads/)")
	)
	flag.Parse()
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "ataqc-bench: -workload is required")
		os.Exit(2)
	}
	if err := run(*url, *out, *maxP99, *scrape, *workload); err != nil {
		fmt.Fprintf(os.Stderr, "ataqc-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(url, out string, maxP99 float64, scrapeEvery time.Duration, workload string) error {
	spec, err := loadgen.LoadWorkload(workload)
	if err != nil {
		return err
	}
	levels, err := spec.Configs(url)
	if err != nil {
		return err
	}
	rep := &benchReport{URL: url, Workload: spec.Name, Seed: spec.Seed}
	if err := ping(url); err != nil {
		return fmt.Errorf("daemon not reachable before the run: %w", err)
	}

	var sc *scraper
	if scrapeEvery > 0 {
		sc = startScraper(url, scrapeEvery)
	}
	for i, cfg := range levels {
		fmt.Fprintf(os.Stderr, "ataqc-bench: level %d/%d rps=%g clients=%d duration=%s chaos=%g\n",
			i+1, len(levels), cfg.RPS, cfg.Clients, cfg.Duration, cfg.ChaosFraction)
		lvl, err := loadgen.Run(context.Background(), cfg)
		if err != nil {
			return fmt.Errorf("level rps=%g: %w", cfg.RPS, err)
		}
		rep.Levels = append(rep.Levels, lvl)
		fmt.Fprintf(os.Stderr, "ataqc-bench:   sent=%d ok=%d degraded=%d shed=%d retries=%d aborted=%d p50=%.1fms p99=%.1fms chaos=%d/%d\n",
			lvl.Sent, lvl.OK, lvl.Degraded, lvl.Shed, lvl.Retries, lvl.Aborted,
			lvl.LatencyMs.P50, lvl.LatencyMs.P99, lvl.Chaos.Sent-lvl.Chaos.ContractViolations, lvl.Chaos.Sent)
	}

	// The run's central claim: after everything above, the daemon is alive
	// and still answering.
	rep.DaemonOK = ping(url) == nil
	if sc != nil {
		rep.Metrics = sc.stop()
	}

	if err := emit(rep, out); err != nil {
		return err
	}
	return gate(rep, maxP99)
}

// gate turns the report into the CI pass/fail verdict.
func gate(rep *benchReport, maxP99 float64) error {
	if !rep.DaemonOK {
		return fmt.Errorf("daemon did not survive the run (healthz failed)")
	}
	for _, lvl := range rep.Levels {
		if lvl.Chaos.ContractViolations > 0 {
			return fmt.Errorf("rps=%g: %d chaos scenarios got unstructured answers: %v",
				lvl.TargetRPS, lvl.Chaos.ContractViolations, lvl.Chaos.Violated)
		}
		if lvl.TraceIDViolations > 0 {
			return fmt.Errorf("rps=%g: %d responses arrived without a well-formed trace ID",
				lvl.TargetRPS, lvl.TraceIDViolations)
		}
		if lvl.Sent > 0 && lvl.OK == 0 && lvl.Shed == 0 {
			return fmt.Errorf("rps=%g: no request succeeded or was shed — daemon answered nothing useful", lvl.TargetRPS)
		}
		if maxP99 > 0 && lvl.LatencyMs.P99 > maxP99 {
			return fmt.Errorf("rps=%g: p99 %.1fms exceeds the %.1fms gate", lvl.TargetRPS, lvl.LatencyMs.P99, maxP99)
		}
	}
	return nil
}

func ping(url string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimSuffix(url, "/")+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	return nil
}

func emit(rep *benchReport, out string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if out == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(out, b, 0o644)
}
