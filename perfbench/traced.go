package main

// The traced run: one in-process run per workload that makes the same
// exported calls as the workload's entry point, each wrapped in a span
// named after the layer it enters. Its outputs must be byte-identical
// to the entry point's; its spans give the per-layer metrics.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/errcat"
	"repro/internal/faultgen"
	"repro/internal/filter"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/simulate"
	"repro/internal/store"
	"repro/internal/symtab"
	"repro/internal/workload"
)

// renderSteps is RenderAll's order: the heading a skipped step prints
// under, and the artifact that renders it.
var renderSteps = []struct{ heading, key string }{
	{"Table I", "t1"}, {"Table II", "t2"}, {"Table III", "t3"}, {"pipeline", "pipeline"},
	{"identification", "obs1"}, {"classification", "obs2"}, {"job filter", "obs3"},
	{"Figure 2", "f2"}, {"Figure 3", "f3"}, {"Table IV", "t4"}, {"midplane fits", "mpfits"},
	{"Figure 4", "f4"}, {"Figure 5", "f5"}, {"Figure 6", "f6"}, {"Table V", "t5"},
	{"propagation", "obs8"}, {"Figure 7", "f7"}, {"Table VI", "t6"}, {"features", "features"},
	{"event types", "types"}, {"model comparison", "models"}, {"prediction study", "predict"},
	{"checkpoint study", "ckpt"},
}

// chunk is how many records the bounded run decodes, or merged rows it
// reads, between spans.
const chunk = 4096

// layerMetric is one per-layer metric: from a span's self time, wall
// time, allocation or latency distribution, or from a count.
type layerMetric struct{ name, unit string }

// layerMetricList is every per-layer metric, printed on every workload
// (zero where the workload does not enter the layer).
func layerMetricList() []layerMetric {
	ms := []layerMetric{
		{"workload.new_s", "s"},
		{"sched.run_s", "s"}, {"sched.run_alloc_mb", "MB"},
		{"sched.jobs", "count"}, {"sched.ras_records", "count"}, {"sched.fatal_records", "count"},
		{"raslog.sort_s", "s"}, {"raslog.sort_alloc_mb", "MB"}, {"raslog.encode_s", "s"},
		{"raslog.decode_s", "s"}, {"raslog.decode_alloc_mb", "MB"},
		{"joblog.decode_s", "s"}, {"joblog.sort_s", "s"}, {"joblog.encode_s", "s"},
		{"filter.cascade_s", "s"}, {"filter.cascade_alloc_mb", "MB"}, {"filter.feed_s", "s"},
		{"filter.input", "count"}, {"filter.after_temporal", "count"},
		{"filter.after_spatial", "count"}, {"filter.after_causality", "count"},
		{"store.spool_s", "s"}, {"store.finish_s", "s"}, {"store.merge_s", "s"},
		{"store.runs", "count"}, {"store.flushes", "count"}, {"store.spilled_mb", "MB"},
		{"store.zone_skipped", "count"}, {"store.scanned", "count"},
		{"core.analyze_s", "s"}, {"core.analyze_alloc_mb", "MB"}, {"core.interruptions", "count"},
		{"oracle.recall", "ratio"}, {"oracle.precision", "ratio"},
	}
	for _, s := range renderSteps {
		ms = append(ms, layerMetric{"render." + s.key + "_s", "s"})
	}
	return append(ms,
		layerMetric{"render.total_s", "s"}, layerMetric{"render.total_alloc_mb", "MB"},
		layerMetric{"serve.ingest_ras_p50_ms", "ms"}, layerMetric{"serve.ingest_job_p50_ms", "ms"},
		layerMetric{"serve.publish_p50_ms", "ms"}, layerMetric{"serve.publish_max_ms", "ms"},
		layerMetric{"serve.quiesce_ms", "ms"}, layerMetric{"serve.query_s", "s"},
		layerMetric{"serve.seal_count", "count"}, layerMetric{"serve.rejected_batches", "count"},
		layerMetric{"serve.jobs_left_out", "count"},
		layerMetric{"serve.http_ingest_p50_ms", "ms"}, layerMetric{"serve.http_ingest_p90_ms", "ms"},
		layerMetric{"serve.http_query_p90_ms", "ms"},
		layerMetric{"serve.http_report_s", "s"},
		layerMetric{"trace.wall_s", "s"}, layerMetric{"trace.glue_s", "s"}, layerMetric{"trace.overhead_s", "s"},
	)
}

// tracedRun makes the workload's traced run and returns every
// per-layer metric. untracedWall is the median wall time of the
// untraced operations; rounds are those operations.
func tracedRun(b *bench, untracedWall float64, rounds []round) (map[string]metric, error) {
	t := newTracer()
	counts := map[string]float64{}
	var err error
	switch b.workload {
	case "generate":
		err = traceGenerate(t, b, counts)
	case "analyze":
		err = traceAnalyze(t, b, counts)
	case "analyze-bounded":
		err = traceBounded(t, b, counts)
	case "serve":
		err = traceServe(t, b, counts)
	}
	if err != nil {
		return nil, err
	}

	out := map[string]metric{}
	for _, m := range layerMetricList() {
		out[m.name] = metric{0, m.unit}
	}
	set := func(name string, v float64) { out[name] = metric{v, out[name].Unit} }
	totals := layerTotals(t.spans)
	for name, lt := range totals {
		if _, ok := out[name+"_s"]; ok {
			set(name+"_s", lt.Self.Seconds())
		}
		if _, ok := out[name+"_alloc_mb"]; ok {
			set(name+"_alloc_mb", float64(lt.AllocBytes)/1e6)
		}
	}
	if rt := totals["render.total"]; rt != nil {
		set("render.total_s", rt.Wall.Seconds())
	}
	ms := func(name string, q float64) float64 {
		lt := totals[name]
		if lt == nil {
			return 0
		}
		var xs []float64
		for _, d := range lt.Durations {
			xs = append(xs, float64(d)/1e6)
		}
		return quantile(xs, q)
	}
	set("serve.ingest_ras_p50_ms", ms("serve.ingest_ras", 0.5))
	set("serve.ingest_job_p50_ms", ms("serve.ingest_job", 0.5))
	set("serve.publish_p50_ms", ms("serve.publish", 0.5))
	set("serve.publish_max_ms", ms("serve.publish", 1))
	set("serve.quiesce_ms", ms("serve.quiesce", 1))
	for name, v := range counts {
		set(name, v)
	}
	set("oracle.recall", b.c.recall)
	set("oracle.precision", b.c.precision)

	if b.workload == "serve" {
		var ingest, queries, report []float64
		for _, r := range rounds {
			for _, d := range r.serve.ingestRAS {
				ingest = append(ingest, float64(d)/1e6)
			}
			for _, d := range r.latencies {
				queries = append(queries, float64(d)/1e6)
			}
			report = append(report, r.serve.report.Seconds())
		}
		last := rounds[len(rounds)-1].serve
		set("serve.http_ingest_p50_ms", median(ingest))
		set("serve.http_ingest_p90_ms", quantile(ingest, 0.9))
		set("serve.http_query_p90_ms", quantile(queries, 0.9))
		set("serve.http_report_s", median(report))
		set("serve.rejected_batches", float64(last.rejected))
		set("serve.seal_count", float64(last.sealed))
		set("serve.jobs_left_out", float64(b.replay.leftOut))
	}

	root := t.spans[0]
	self := selfTimes(t.spans)
	set("trace.wall_s", (root.End - root.Start).Seconds())
	set("trace.glue_s", self[0].Seconds())
	set("trace.overhead_s", (root.End-root.Start).Seconds()-untracedWall)
	return out, nil
}

// renderReport renders every RenderAll step, each in its own span, the
// way RenderAll prints them. report is called inside each step's span,
// so a report that derives state on first use is charged to the first
// step, as it is in RenderAll.
func renderReport(t *tracer, report func() *repro.Report) ([]byte, error) {
	end := t.begin("render.total")
	defer end()
	artifacts := repro.Artifacts()
	var out bytes.Buffer
	for _, s := range renderSteps {
		err := t.do("render."+s.key, func() error {
			var buf bytes.Buffer
			if err := artifacts[s.key](report(), &buf); err != nil {
				fmt.Fprintf(&out, "[%s skipped: %v]\n\n", s.heading, err)
				return nil
			}
			out.Write(buf.Bytes())
			out.WriteByte('\n')
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out.Bytes(), nil
}

// checkFilter compares a traced run's cascade counts with the
// reference's: every path must give the paper's Figure 1 numbers.
func checkFilter(st filter.Stats, ref *reference, counts map[string]float64) error {
	got := [4]int{st.Input, st.AfterTemporal, st.AfterSpatial, st.AfterCausality}
	if got != ref.filter {
		return mismatch(fmt.Errorf("cascade counts %v, reference %v", got, ref.filter))
	}
	counts["filter.input"] = float64(st.Input)
	counts["filter.after_temporal"] = float64(st.AfterTemporal)
	counts["filter.after_spatial"] = float64(st.AfterSpatial)
	counts["filter.after_causality"] = float64(st.AfterCausality)
	return nil
}

// traceGenerate composes bgpgen: simulate.Run's calls, then WriteLogs.
func traceGenerate(t *tracer, b *bench, counts map[string]float64) error {
	rasPath, jobPath := filepath.Join(b.work, "trace-ras.log"), filepath.Join(b.work, "trace-job.log")
	defer os.Remove(rasPath)
	defer os.Remove(jobPath)
	end := t.begin("perfbench.generate")
	cat := errcat.Intrepid()
	var gen *workload.Generator
	err := t.do("workload.new", func() (err error) {
		spec := workload.DefaultSpec(b.c.seed, 1)
		spec.Days = campaignDays
		gen, err = workload.New(spec, cat.ByClass(errcat.ClassApplication))
		return err
	})
	if err != nil {
		return err
	}
	var res *sched.Result
	err = t.do("sched.run", func() (err error) {
		emit := faultgen.DefaultEmitterConfig()
		emit.NoisePerFatal = b.c.noise
		res, err = sched.Run(sched.DefaultConfig(b.c.seed), gen, faultgen.DefaultModel(cat), emit)
		return err
	})
	if err != nil {
		return err
	}
	camp := &simulate.Campaign{Catalog: cat, Result: res}
	t.do("raslog.sort", func() error { camp.RAS = raslog.NewStore(res.Records); return nil })
	t.do("joblog.sort", func() error { camp.Jobs = joblog.NewLog(res.Jobs); return nil })
	if err := t.do("raslog.encode", func() error { return writeLog(rasPath, func(w io.Writer) error { return camp.WriteLogs(w, nil) }) }); err != nil {
		return err
	}
	if err := t.do("joblog.encode", func() error { return writeLog(jobPath, func(w io.Writer) error { return camp.WriteLogs(nil, w) }) }); err != nil {
		return err
	}
	end()

	for _, f := range []struct {
		path string
		want []byte
	}{{rasPath, b.c.ras}, {jobPath, b.c.job}} {
		got, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, f.want) {
			return mismatch(fmt.Errorf("traced generation wrote %s unlike the oracle's log", filepath.Base(f.path)))
		}
	}
	counts["sched.jobs"] = float64(len(res.Jobs))
	counts["sched.ras_records"] = float64(len(res.Records))
	counts["sched.fatal_records"] = float64(len(camp.RAS.Fatal()))
	return nil
}

// writeLog creates path and writes it with write, as bgpgen does.
func writeLog(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}

// traceAnalyze composes coanalyze: the calls repro.Load makes (the two
// decodes, NewStore, NewLog and core.Analyze, with the configuration
// coanalyze gives it), then RenderAll's steps.
//
// core.Analyze runs the filter cascade inside itself, so on this path
// core.analyze covers the cascade too. To time the cascade on its own,
// the run then makes core.Analyze's own cascade call once more, with
// the same inputs, in a span of its own after the traced run (so
// outside trace.wall_s).
//
// The batch Report that repro.Load builds has no exported constructor.
// The traced run assembles it with NewStreamReport and derives the
// raw-log aggregates from the store with the loop Report.logStats runs,
// inside the first render step, where RenderAll derives them.
func traceAnalyze(t *tracer, b *bench, counts map[string]float64) error {
	rasData, err := os.ReadFile(b.c.rasPath)
	if err != nil {
		return err
	}
	jobData, err := os.ReadFile(b.c.jobPath)
	if err != nil {
		return err
	}
	end := t.begin("perfbench.analyze")
	var recs []raslog.Record
	var jobs []joblog.Job
	if err := t.do("raslog.decode", func() (err error) {
		recs, err = raslog.ReadAllParallel(bytes.NewReader(rasData), 0)
		return err
	}); err != nil {
		return err
	}
	if err := t.do("joblog.decode", func() (err error) {
		jobs, err = joblog.ReadAllParallel(bytes.NewReader(jobData), 0)
		return err
	}); err != nil {
		return err
	}
	var ras *raslog.Store
	var jl *joblog.Log
	t.do("raslog.sort", func() error { ras = raslog.NewStore(recs); return nil })
	t.do("joblog.sort", func() error { jl = joblog.NewLog(jobs); return nil })

	// repro.Load's configuration at coanalyze's defaults.
	cfg := core.DefaultConfig()
	cfg.Parallelism = 0
	var a *core.Analysis
	if err := t.do("core.analyze", func() (err error) { a, err = core.Analyze(cfg, ras, jl); return err }); err != nil {
		return err
	}
	var rep *repro.Report
	out, err := renderReport(t, func() *repro.Report {
		if rep == nil {
			var stats repro.LogStats
			all := ras.All()
			for i := range all {
				stats.ObserveRAS(&all[i])
			}
			rep = repro.NewStreamReport(a, jl, stats)
		}
		return rep
	})
	if err != nil {
		return err
	}
	end()

	// core.Analyze's cascade call: its configuration after core.Analyze
	// applies the analysis-level parallelism, and a fresh table.
	fcfg := cfg.Filter
	if fcfg.Parallelism == 0 {
		fcfg.Parallelism = cfg.Parallelism
	}
	var fstats filter.Stats
	t.do("filter.cascade", func() error {
		_, fstats = filter.Pipeline(fcfg, symtab.NewTable(), ras.Fatal())
		return nil
	})
	if fstats != a.FilterStats {
		return mismatch(fmt.Errorf("the cascade on its own counted %+v, inside core.Analyze %+v", fstats, a.FilterStats))
	}
	return checkAnalysis(out, a, b.c.ref, counts)
}

// analyzeStream runs the stages after the cascade, as core.Analyze and
// the bounded path do: the occupancy index over the jobs, then
// core.AnalyzeStream over the campaign's span.
func analyzeStream(t *tracer, cfg core.Config, tab *symtab.Table, events []*filter.Event, fstats filter.Stats,
	jl *joblog.Log, rasFirst, rasLast time.Time) (a *core.Analysis, err error) {
	err = t.do("core.analyze", func() error {
		var occ core.OccupancyBuilder
		for _, j := range jl.All() {
			occ.Add(j)
		}
		jFirst, jLast := jl.Span()
		start, stop := core.UnionSpan(rasFirst, rasLast, jFirst, jLast)
		a, err = core.AnalyzeStream(cfg, core.StreamInput{Tab: tab, Events: events, FilterStats: fstats,
			Jobs: jl, Occupancy: occ.Snapshot(), SpanStart: start, SpanEnd: stop})
		return err
	})
	return a, err
}

func checkAnalysis(out []byte, a *core.Analysis, ref *reference, counts map[string]float64) error {
	if err := sameReport(out, ref.report, ref.ties); err != nil {
		return mismatch(fmt.Errorf("traced run rendered a report unlike the reference: %w", err))
	}
	counts["core.interruptions"] = float64(len(a.Interruptions))
	return checkFilter(a.FilterStats, ref, counts)
}

// traceBounded composes coanalyze -mem-budget: one decode pass that
// spools every record toward sorted runs, the merge back with
// zone-map pushdown into the incremental cascade, then the stages
// after it and RenderAll.
func traceBounded(t *tracer, b *bench, counts map[string]float64) error {
	spill := filepath.Join(b.work, "trace-spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(spill)
	rf, err := os.Open(b.c.rasPath)
	if err != nil {
		return err
	}
	defer rf.Close()
	jf, err := os.Open(b.c.jobPath)
	if err != nil {
		return err
	}
	defer jf.Close()

	end := t.begin("perfbench.analyze-bounded")
	var (
		stats           repro.LogStats
		rasFirst        int64
		rasLast         int64
		firstT, firstID int64
		sp              = store.NewSpool(spill, int64(b.memBudget()))
		rd              = raslog.NewReader(rf)
		buf             = make([]raslog.Record, 0, chunk)
		eof             bool
	)
	for !eof {
		err := t.do("raslog.decode", func() error {
			buf = buf[:0]
			for len(buf) < chunk {
				rec, err := rd.Read()
				if errors.Is(err, io.EOF) {
					eof = true
					return nil
				}
				if err != nil {
					return fmt.Errorf("reading RAS log: line %d: %w", rd.Line(), err)
				}
				buf = append(buf, rec)
			}
			return nil
		})
		if err != nil {
			return err
		}
		err = t.do("store.spool", func() error {
			for i := range buf {
				rec := &buf[i]
				ts := rec.EventTime.UnixNano()
				weight := int64(len(rec.MarshalLine()) + 1)
				stats.RASRecords++
				stats.RASBytes += int(weight)
				if stats.RASRecords == 1 || ts < rasFirst {
					rasFirst = ts
				}
				if stats.RASRecords == 1 || ts > rasLast {
					rasLast = ts
				}
				if rec.Fatal() {
					stats.FatalRecords++
					if !stats.HasFatal || ts < firstT || (ts == firstT && rec.RecID < firstID) {
						stats.FirstFatal = *rec
						stats.HasFatal = true
						firstT, firstID = ts, rec.RecID
					}
				}
				if err := sp.Add(rec.RecID, ts, rec.ErrCode, rec.Location,
					int32(rec.Component), int32(rec.Severity), rec.Fatal(), weight); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	var cat *store.Catalog
	var spStats store.SpoolStats
	if err := t.do("store.finish", func() (err error) { cat, spStats, err = sp.Finish(); return err }); err != nil {
		return err
	}
	defer cat.Close()
	var jobs []joblog.Job
	if err := t.do("joblog.decode", func() (err error) { jobs, err = joblog.ReadAllParallel(jf, 0); return err }); err != nil {
		return err
	}
	var jl *joblog.Log
	t.do("joblog.sort", func() error { jl = joblog.NewLog(jobs); return nil })

	cfg := core.DefaultConfig()
	tab := symtab.NewTable()
	inc := filter.NewIncremental(cfg.Filter, tab)
	var mr *store.MergeReader
	if err := t.do("store.merge", func() (err error) { mr, err = cat.Merge(filter.CascadeQuery()); return err }); err != nil {
		return err
	}
	rows := make([]store.Row, 0, chunk)
	for more := true; more; {
		err := t.do("store.merge", func() error {
			rows = rows[:0]
			for len(rows) < chunk {
				row, ok, err := mr.Next()
				if err != nil {
					return err
				}
				if !ok {
					more = false
					return nil
				}
				rows = append(rows, row)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := t.do("filter.feed", func() error {
			for _, row := range rows {
				if err := inc.FeedRow(row); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	ms := mr.Stats()
	var events []*filter.Event
	var fstats filter.Stats
	t.do("filter.feed", func() error { events, fstats = inc.Snapshot(); return nil })
	a, err := analyzeStream(t, cfg, tab, events, fstats, jl, nsTime(rasFirst), nsTime(rasLast))
	if err != nil {
		return err
	}
	rep := repro.NewStreamReport(a, jl, stats)
	out, err := renderReport(t, func() *repro.Report { return rep })
	if err != nil {
		return err
	}
	end()

	counts["store.runs"] = float64(spStats.Runs)
	counts["store.flushes"] = float64(spStats.Flushes)
	counts["store.spilled_mb"] = float64(spStats.SpilledBytes) / 1e6
	counts["store.zone_skipped"] = float64(ms.Skipped)
	counts["store.scanned"] = float64(ms.Scanned)
	if spStats.Flushes < 1 || ms.Skipped < 1 {
		return mismatch(fmt.Errorf("bounded run flushed %d times and skipped %d segments; want at least one of each", spStats.Flushes, ms.Skipped))
	}
	return checkAnalysis(out, a, b.c.ref, counts)
}

// nsTime maps Unix nanoseconds to a UTC time, 0 to the zero time.
func nsTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// traceServe composes bgpd's request handling: each ingest batch is
// decoded and applied to the engine, publications and queries follow
// the cadence of the HTTP rounds (one query from the same mix as each
// ingest request goes out, from the first publication on), then the
// engine quiesces and renders every fragment.
func traceServe(t *tracer, b *bench, counts map[string]float64) error {
	rp := b.replay
	dir := filepath.Join(b.work, "trace-data")
	defer os.RemoveAll(dir)
	end := t.begin("perfbench.serve")
	eng, err := serve.NewEngine(serve.Config{DataDir: dir, SealRows: 4096})
	if err != nil {
		return err
	}
	from := time.Unix(0, b.c.ref.scan.FirstNS).UTC().Truncate(24 * time.Hour)
	window := core.WindowConfig{From: from, To: from.Add(7 * 24 * time.Hour)}
	// The mix in the order of replay.queries: the epoch summary, each
	// precomputed query view, and the window scan.
	mix := []func(ep *serve.Epoch) error{func(ep *serve.Epoch) error { _ = ep.Summary(); return nil }}
	for _, name := range serve.QueryNames() {
		mix = append(mix, func(ep *serve.Epoch) error {
			if _, ok := ep.Query(name); !ok {
				return fmt.Errorf("query %q unknown to the engine", name)
			}
			return nil
		})
	}
	mix = append(mix, func(*serve.Epoch) error { _, _, err := eng.ScanWindow(window); return err })
	if len(mix) != len(rp.queries) {
		return fmt.Errorf("traced query mix has %d queries, the HTTP mix %d", len(mix), len(rp.queries))
	}
	queries := 0
	query := func() error {
		ep := eng.Epoch()
		if ep == nil {
			return nil
		}
		q := mix[queries%len(mix)]
		queries++
		return t.do("serve.query", func() error { return q(ep) })
	}
	rasOK, jobOK := make([]bool, len(rp.ras)), make([]bool, len(rp.job))
	accepted := func(err error) (bool, error) {
		var oe *serve.OrderError
		if errors.As(err, &oe) {
			return false, nil
		}
		return err == nil, err
	}
	for i := range rp.ras {
		if err := query(); err != nil {
			return err
		}
		err := t.do("serve.ingest_ras", func() error {
			var recs []raslog.Record
			if err := t.do("raslog.decode", func() (err error) {
				recs, err = raslog.NewReader(bytes.NewReader(rp.ras[i])).ReadAll()
				return err
			}); err != nil {
				return err
			}
			var err error
			rasOK[i], err = accepted(eng.IngestRAS(recs))
			return err
		})
		if err != nil {
			return err
		}
		if err := query(); err != nil {
			return err
		}
		err = t.do("serve.ingest_job", func() error {
			var jobs []joblog.Job
			if err := t.do("joblog.decode", func() (err error) {
				jobs, err = joblog.NewReader(bytes.NewReader(rp.job[i])).ReadAll()
				return err
			}); err != nil {
				return err
			}
			var err error
			jobOK[i], err = accepted(eng.IngestJobs(jobs))
			return err
		})
		if err != nil {
			return err
		}
		if (i+1)%publishEvery == 0 && i+1 < len(rp.ras) {
			if err := t.do("serve.publish", func() (err error) { _, err = eng.Publish(); return err }); err != nil {
				return err
			}
		}
	}
	if queries != rp.queryCount {
		return fmt.Errorf("traced run made %d queries, the HTTP rounds %d", queries, rp.queryCount)
	}
	var ep *serve.Epoch
	if err := t.do("serve.quiesce", func() (err error) { ep, err = eng.Quiesce(); return err }); err != nil {
		return err
	}
	frags := map[string][]byte{}
	codes := map[string]int{}
	t.do("render.total", func() error {
		for _, name := range fragmentNames() {
			t.do("render."+name, func() error {
				body, err := ep.Fragment(name)
				frags[name], codes[name] = body, 200
				if err != nil {
					frags[name], codes[name] = []byte(jsonEscape(err.Error())), 409
				}
				return nil
			})
		}
		return nil
	})
	end()

	ref, err := rp.reference(rasOK, jobOK)
	if err != nil {
		return err
	}
	var sealed int
	if err := checkServed(ref, ep.Summary(), frags, codes, &sealed); err != nil {
		return mismatch(fmt.Errorf("traced run: %w", err))
	}
	counts["core.interruptions"] = float64(len(ep.Analysis.Interruptions))
	return checkFilter(ep.Analysis.FilterStats, ref, counts)
}
