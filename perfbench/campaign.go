package main

// Set-up: every workload runs over one generated campaign. Set-up
// simulates it in-process at the benchmark's seed (the generator
// oracle), writes the two logs the entry points read, scans them with
// the independent line scanner, analyzes them, scores the analysis
// against the generator's ground truth and keeps the rendered report
// as the reference every entry point's output must equal.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro"
	"repro/internal/core"
	"repro/internal/simulate"
)

const (
	// campaignDays, fatalTarget and rasRecords size the campaign so
	// that every seed's campaign carries about the same work. A
	// campaign's FATAL count comes from a few large fault storms and
	// varies about threefold between seeds of one length, so set-up
	// simulates `candidates` campaigns, at seeds seed,
	// seed+candidateStride, ..., and keeps the one whose FATAL count is
	// nearest fatalTarget; then it chooses the noise ratio that brings
	// the RAS log to rasRecords records. The targets keep the full
	// 237-day campaign's proportions (69,124 jobs, 24,976 FATAL,
	// 1,573,488 records) for the ~8,700 jobs of 30 days, which puts the
	// noise ratio near the full campaign's 62. The length is set by the
	// run budget: every run sets up three times and then measures, and
	// the whole suite of runs must fit in under an hour on two CPUs.
	campaignDays    = 30
	fatalTarget     = 3_150
	rasRecords      = 200_000
	candidates      = 4
	candidateStride = 1_000_003

	// The recall and precision floors of the matching oracle, as in
	// internal/core's oracle tests.
	minRecall    = 0.90
	minPrecision = 0.85

	// probeSeed and probeDays fix the campaign that set-up holds to the
	// matching floors and whose job log the serve workload's fault probe
	// uses; it does not depend on --seed. Its job log holds a job line
	// whose (END, ID) key falls behind its predecessor's.
	probeSeed = 1
	probeDays = 30
)

// campaign is one set-up's output.
type campaign struct {
	seed     int64 // the chosen candidate's seed, as bgpgen takes it
	noise    float64
	rasPath  string
	jobPath  string
	ras, job []byte
	ref      *reference
	// recall and precision score the reference analysis against the
	// jobs the generator interrupted.
	recall, precision float64
	probeJob          []byte // the fixed probe campaign's job log
}

// reference is what every output of the program is compared with: the
// scan of the logs it read and the batch analysis of those logs.
type reference struct {
	scan    *scan
	report  []byte            // RenderAll output, as coanalyze prints it
	frags   map[string][]byte // each fragment the daemon serves
	fragErr map[string]string // fragments that cannot be rendered, with the reason
	filter  [4]int            // the cascade counts: input, temporal, spatial, causality
	interr  int               // interruptions matched
	ties    figure2Ties       // Figure 2 examples whose order the program leaves open
}

// noiseFor returns the noise ratio that makes a campaign with fatal
// FATAL records total rasRecords records.
func noiseFor(fatal int) (float64, error) {
	if fatal <= 0 || fatal >= rasRecords {
		return 0, fmt.Errorf("campaign has %d FATAL records; cannot size it to %d records", fatal, rasRecords)
	}
	return float64(rasRecords-fatal) / float64(fatal), nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// generate simulates a campaign and returns both logs.
func generate(seed int64, days int, noise float64) (*simulate.Campaign, []byte, []byte, error) {
	camp, err := simulate.Run(simulate.Config{Seed: seed, Days: days, NoisePerFatal: noise})
	if err != nil {
		return nil, nil, nil, err
	}
	var ras, job bytes.Buffer
	if err := camp.WriteLogs(&ras, &job); err != nil {
		return nil, nil, nil, err
	}
	return camp, ras.Bytes(), job.Bytes(), nil
}

// setUp builds the campaign for seed in dir. With frags it also renders
// each report fragment on its own, as the daemon serves them.
func setUp(seed int64, dir string, frags bool) (*campaign, error) {
	// Without noise the simulation is cheap, and its FATAL records and
	// jobs are the same as with any noise ratio: the noise is drawn
	// after them.
	var chosen int64
	fatal := -1
	for k := int64(0); k < candidates; k++ {
		probe, err := simulate.Run(simulate.Config{Seed: seed + k*candidateStride, Days: campaignDays, NoisePerFatal: 0})
		if err != nil {
			return nil, err
		}
		if f := probe.RAS.Len(); fatal < 0 || abs(f-fatalTarget) < abs(fatal-fatalTarget) {
			chosen, fatal = seed+k*candidateStride, f
		}
	}
	noise, err := noiseFor(fatal)
	if err != nil {
		return nil, err
	}
	camp, ras, job, err := generate(chosen, campaignDays, noise)
	if err != nil {
		return nil, err
	}
	c := &campaign{
		seed: chosen, noise: noise, ras: ras, job: job,
		rasPath: filepath.Join(dir, "ras.log"),
		jobPath: filepath.Join(dir, "job.log"),
	}
	if err := os.WriteFile(c.rasPath, ras, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(c.jobPath, job, 0o644); err != nil {
		return nil, err
	}
	ref, rep, err := buildReference(ras, job, frags)
	if err != nil {
		return nil, err
	}
	c.ref = ref

	if c.recall, c.precision, err = score(camp, rep); err != nil {
		return nil, err
	}
	if c.probeJob, err = checkOracle(); err != nil {
		return nil, err
	}
	return c, nil
}

// score compares the interrupted jobs an analysis matched with the
// generator's ground truth.
func score(camp *simulate.Campaign, rep *repro.Report) (recall, precision float64, err error) {
	truth := camp.Result.Truth.InterruptedJobs()
	matched := rep.Analysis().InterruptedJobIDs()
	if len(truth) == 0 || len(matched) == 0 {
		return 0, 0, fmt.Errorf("oracle: %d interrupted jobs, %d matched", len(truth), len(matched))
	}
	tp := 0
	for _, id := range truth {
		if matched[id] {
			tp++
		}
	}
	return float64(tp) / float64(len(truth)), float64(tp) / float64(len(matched)), nil
}

// checkOracle analyzes the fixed probe campaign and holds its matching
// to the recall and precision floors; it returns the probe campaign's
// job log. The floors are not applied to the seeded campaign: at this
// campaign length matching precision falls below 0.85 on a few seeds
// (seeds 20 and 53 of 1-80 score 0.829 and 0.833), which would make the
// benchmark fail at random. The seeded campaign's scores are reported
// as per-layer metrics instead.
func checkOracle() ([]byte, error) {
	camp, ras, job, err := generate(probeSeed, probeDays, 0)
	if err != nil {
		return nil, err
	}
	rep, err := repro.Load(repro.DefaultConfig(0), bytes.NewReader(ras), bytes.NewReader(job))
	if err != nil {
		return nil, err
	}
	recall, precision, err := score(camp, rep)
	if err != nil {
		return nil, err
	}
	if recall < minRecall || precision < minPrecision {
		return nil, fmt.Errorf("oracle: matching recall %.3f (want >= %.2f), precision %.3f (want >= %.2f)",
			recall, minRecall, precision, minPrecision)
	}
	return job, nil
}

// buildReference scans a pair of logs, analyzes them on the batch
// path and checks the rendered report against the scan. It serves the
// whole campaign and, for the serve workload, exactly the records the
// daemon accepted. With frags it renders each fragment as well.
func buildReference(ras, job []byte, frags bool) (*reference, *repro.Report, error) {
	sc, err := scanLogs(ras, job)
	if err != nil {
		return nil, nil, err
	}
	rep, err := repro.Load(repro.DefaultConfig(0), bytes.NewReader(ras), bytes.NewReader(job))
	if err != nil {
		return nil, nil, err
	}
	ref := &reference{scan: sc, frags: make(map[string][]byte), fragErr: make(map[string]string)}
	var all bytes.Buffer
	if err := rep.RenderAll(&all); err != nil {
		return nil, nil, err
	}
	ref.report = all.Bytes()
	artifacts := repro.Artifacts()
	for _, name := range fragmentNames() {
		if !frags {
			break
		}
		var buf bytes.Buffer
		if err := artifacts[name](rep, &buf); err != nil {
			ref.fragErr[name] = err.Error()
			continue
		}
		ref.frags[name] = buf.Bytes()
	}
	a := rep.Analysis()
	fs := a.FilterStats
	ref.filter = [4]int{fs.Input, fs.AfterTemporal, fs.AfterSpatial, fs.AfterCausality}
	ref.interr = len(a.Interruptions)
	ref.ties = tiesOf(a.RelocationExamples(math.MaxInt32))
	if err := checkReport(ref.report, sc); err != nil {
		return nil, nil, fmt.Errorf("reference report: %w", err)
	}
	if ref.filter[0] != sc.Fatal {
		return nil, nil, fmt.Errorf("cascade input %d, scan counts %d FATAL lines", ref.filter[0], sc.Fatal)
	}
	return ref, rep, nil
}

// tiesOf returns, for each rank of examples (every Figure 2 example, in
// the program's order), the examples whose first interruption ends at
// the same instant as the one at that rank.
func tiesOf(examples []core.RelocationExample) figure2Ties {
	ties := make(figure2Ties, len(examples))
	for i, ex := range examples {
		for _, other := range examples {
			if other.First.Job.EndTime.Equal(ex.First.Job.EndTime) {
				ties[i] = append(ties[i], figure2Key(other.Code, other.Exec))
			}
		}
	}
	return ties
}

// fragmentNames lists the report fragments the benchmark fetches from
// the daemon, sorted: every artifact but "sweep", which needs the raw
// RAS store that a streaming report does not keep and so is refused by
// design.
func fragmentNames() []string {
	var out []string
	for name := range repro.Artifacts() {
		if name != "sweep" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// sameCampaign reports whether two set-ups produced identical logs and
// reports; set-up runs several times, and each must agree.
func sameCampaign(a, b *campaign) bool {
	return a.noise == b.noise && bytes.Equal(a.ras, b.ras) && bytes.Equal(a.job, b.job) &&
		sameReport(b.ref.report, a.ref.report, a.ref.ties) == nil
}

// probeBatch returns the fixed job batch the serve workload uses to
// exercise the job-ordering fault: the 256 lines of the probe
// campaign's job log ending with the first line whose (END, ID) key
// falls behind its predecessor's. With no such line it returns the
// first 256 lines, which a daemon accepts.
func probeBatch(job []byte) ([]byte, error) {
	at, err := firstJobInversion(job)
	if err != nil {
		return nil, err
	}
	var all [][]byte
	if err := lines(job, func(_ int, line []byte) error {
		all = append(all, line)
		return nil
	}); err != nil {
		return nil, err
	}
	end := min(256, len(all))
	if at >= 0 {
		end = at + 1
	}
	var out []byte
	for _, l := range all[max(0, end-256):end] {
		out = append(append(out, l...), '\n')
	}
	return out, nil
}
