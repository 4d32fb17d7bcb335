package main

// The serve workload: one round replays the campaign into a fresh bgpd
// over HTTP. One client connection ingests both logs in file order, in
// batches of at most batchLines RAS lines, a RAS batch then a job batch
// holding the same share of the job log, so that the logs advance
// together. It forces a publication every publishEvery batch pairs (the
// daemon's own ticker is set to an hour). A second connection runs the
// open-loop queries: from the first publication on, one query falls due
// as each ingest request goes out, and is timed from that moment. The
// ingest client waits for the last query's reply, then quiesces the
// daemon and fetches every report fragment. Every round attempts the
// same number of requests whatever the seed.
//
// Where the figures come from:
//   - batchLines is the batch size of the full-scale HTTP replay the
//     reference figures in README.md were measured with;
//   - publishEvery is bgpd's own cadence: by default a following daemon
//     ingests what it tailed every second (-flush-every 1s) and
//     publishes every five (-publish-every 5s);
//   - the query rate is the ingest cadence, one query per ingest
//     request, so that every query meets a daemon that is ingesting
//     however fast or slow ingest becomes. The query mix (each read
//     endpoint in turn) is synthetic: no deployment's mix is on record.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	batchLines   = 4096
	publishEvery = 5
)

// replay is the serve workload's fixed request plan for one campaign.
type replay struct {
	ras, job [][]byte // batch bodies
	// leftOut counts job lines dropped because their (END, ID) key falls
	// behind an earlier line's, which the daemon's ingest cursor would
	// reject along with their whole batch; see README.md.
	leftOut int
	// probe is a fixed job batch, independent of the seed, that holds
	// the same ordering fault; each round sends it to a fresh daemon.
	probe   []byte
	queries []string
	// queryCount is how many queries a round sends: one per ingest
	// request after the first publication.
	queryCount int
	// refs caches the reference for each set of accepted batches.
	refs map[string]*reference
}

// serveStats are one round's request timings.
type serveStats struct {
	ingestRAS, ingestJob, publish []time.Duration
	quiesce, report               time.Duration
	rejected                      int // campaign batches the daemon refused
	sealed                        int
}

func newReplay(c *campaign) (*replay, error) {
	r := &replay{refs: map[string]*reference{}}
	var rasLines [][]byte
	if err := lines(c.ras, func(_ int, l []byte) error {
		rasLines = append(rasLines, l[:len(l)+1]) // with its newline
		return nil
	}); err != nil {
		return nil, err
	}
	jobLines, left, err := orderedJobLines(c.job)
	if err != nil {
		return nil, err
	}
	r.leftOut = left
	n := (len(rasLines) + batchLines - 1) / batchLines
	r.ras, r.job = batches(rasLines, n), batches(jobLines, n)
	r.queryCount = 2 * (n - publishEvery)
	if r.queryCount <= 0 {
		return nil, fmt.Errorf("a RAS log of %d lines gives %d batches, too few for a publication before the last", len(rasLines), n)
	}
	if r.probe, err = probeBatch(c.probeJob); err != nil {
		return nil, err
	}
	from := time.Unix(0, c.ref.scan.FirstNS).UTC().Truncate(24 * time.Hour)
	r.queries = []string{"/v1/epoch", "/v1/query/rates", "/v1/query/mtbf",
		"/v1/query/interruptions", "/v1/query/vulnerability",
		"/v1/scan?" + url.Values{
			"from": {from.Format(time.RFC3339)},
			"to":   {from.Add(7 * 24 * time.Hour).Format(time.RFC3339)},
		}.Encode()}
	if left == 0 {
		r.refs[acceptedKey(nil, nil)] = c.ref
	}
	return r, nil
}

// batches splits lines into n batches of nearly equal line counts.
func batches(ls [][]byte, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		for _, l := range ls[i*len(ls)/n : (i+1)*len(ls)/n] {
			out[i] = append(out[i], l...)
		}
	}
	return out
}

// acceptedLogs concatenates the batches the daemon accepted: the logs
// a batch analysis must see to reproduce the daemon's state.
func acceptedLogs(ras, job [][]byte, rasOK, jobOK []bool) (rasLog, jobLog []byte) {
	for i, b := range ras {
		if rasOK[i] {
			rasLog = append(rasLog, b...)
		}
	}
	for i, b := range job {
		if jobOK[i] {
			jobLog = append(jobLog, b...)
		}
	}
	return rasLog, jobLog
}

func acceptedKey(rasOK, jobOK []bool) string {
	var sb strings.Builder
	for _, ok := range append(append([]bool(nil), rasOK...), jobOK...) {
		if !ok {
			sb.WriteString("x")
		} else {
			sb.WriteString(".")
		}
	}
	return strings.Trim(sb.String(), ".")
}

// reference returns the batch-path reference for the accepted batches,
// building it the first time that set is seen.
func (r *replay) reference(rasOK, jobOK []bool) (*reference, error) {
	key := acceptedKey(rasOK, jobOK)
	if ref, ok := r.refs[key]; ok {
		return ref, nil
	}
	ras, job := acceptedLogs(r.ras, r.job, rasOK, jobOK)
	ref, _, err := buildReference(ras, job, true)
	if err != nil {
		return nil, fmt.Errorf("reference over the accepted records: %w", err)
	}
	r.refs[key] = ref
	return ref, nil
}

// daemon is one bgpd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	drained chan struct{}
	stderr  bytes.Buffer
	done    bool
}

func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{drained: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stderr = &d.stderr
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		br := bufio.NewReader(out)
		line, _ := br.ReadString('\n')
		addr <- strings.TrimSpace(strings.TrimPrefix(line, "bgpd: listening on "))
		io.Copy(io.Discard, br)
	}()
	select {
	case a := <-addr:
		if strings.Contains(a, " ") || a == "" {
			d.stop()
			return nil, fmt.Errorf("bgpd did not start: %s", bytes.TrimSpace(d.stderr.Bytes()))
		}
		d.base = "http://" + a
		return d, nil
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("bgpd did not report its address within 30s")
	}
}

// stop ends the daemon with SIGTERM (a clean shutdown that seals what
// it ingested), killing it if it has not exited within 30s, and returns
// what it cost: its peak resident set so far, read just before the
// signal (the kernel's rusage would count the benchmark's own memory,
// see spawner.go), and its CPU time at exit. Calling stop again is a
// no-op.
func (d *daemon) stop() (usage, error) {
	if d.done {
		return usage{}, nil
	}
	d.done = true
	rss, rssErr := peakRSSKB(d.cmd.Process.Pid)
	d.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(30*time.Second, func() { d.cmd.Process.Kill() })
	defer kill.Stop()
	<-d.drained
	err := d.cmd.Wait()
	ps := d.cmd.ProcessState
	u := usage{Wall: time.Since(d.started), CPU: ps.UserTime() + ps.SystemTime(), RSSKB: rss}
	if err == nil {
		err = rssErr
	}
	if err != nil {
		return u, fmt.Errorf("bgpd: %w: %s", err, bytes.TrimSpace(d.stderr.Bytes()))
	}
	return u, nil
}

// oneConn returns a client that uses a single keep-alive connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// call sends one request and returns its status, body and latency.
func call(c *http.Client, method, u string, body []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, time.Since(start), err
}

type queryResult struct {
	latencies []time.Duration
	failed    int
	err       error
}

// queryLoop sends one query for each due time received from due, on a
// single connection, cycling through paths, until due is closed. Each
// latency runs from the query's due time, so a slow reply that holds
// up the next query on the one connection counts against that query
// too.
func queryLoop(c *http.Client, base string, paths []string, due <-chan time.Time) queryResult {
	var qr queryResult
	i := 0
	for t := range due {
		if qr.err != nil {
			continue // keep draining, so the sender never blocks
		}
		status, _, _, err := call(c, http.MethodGet, base+paths[i%len(paths)], nil)
		i++
		if err != nil {
			qr.err = err
			continue
		}
		qr.latencies = append(qr.latencies, time.Since(t))
		if status != http.StatusOK {
			qr.failed++
		}
	}
	return qr
}

// serveOp is one round of the serve workload.
func serveOp(b *bench) (round, error) {
	rp := b.replay
	dir := filepath.Join(b.work, "bgpd-data")
	if err := os.RemoveAll(dir); err != nil {
		return round{}, err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(b.bin("bgpd"), "-data", dir, "-publish-every", "1h")
	if err != nil {
		return round{}, err
	}
	defer d.stop()

	r := round{serve: &serveStats{}}
	rasOK, jobOK := make([]bool, len(rp.ras)), make([]bool, len(rp.job))
	frags, codes, summary, err := replayRound(d, rp, &r, rasOK, jobOK)
	if err != nil {
		return r, err
	}
	wall := r.u.Wall
	if r.u, err = d.stop(); err != nil {
		return r, err
	}
	r.u.Wall = wall
	r.ok = true
	for i := range rasOK {
		if !rasOK[i] {
			r.serve.rejected++
		}
		if !jobOK[i] {
			r.serve.rejected++
		}
	}

	ref, err := rp.reference(rasOK, jobOK)
	if err != nil {
		return r, err
	}
	if err := checkServed(ref, summary, frags, codes, &r.serve.sealed); err != nil {
		return r, mismatch(err)
	}

	// The probe goes to a daemon of its own, so that whether it is
	// accepted cannot touch the campaign's state.
	p, err := startDaemon(b.bin("bgpd"), "-publish-every", "1h")
	if err != nil {
		return r, err
	}
	defer p.stop()
	status, body, _, err := call(oneConn(), http.MethodPost, p.base+"/v1/ingest/job", rp.probe)
	if err != nil {
		return r, err
	}
	r.attempted++
	switch status {
	case http.StatusOK:
	case http.StatusConflict:
		r.failed++
	default:
		return r, fmt.Errorf("probe batch: HTTP %d: %s", status, body)
	}
	_, err = p.stop()
	return r, err
}

// replayRound ingests the campaign, publishing and querying as it
// goes, quiesces the daemon and fetches every fragment. It records the
// round's wall time in r.u.Wall: from the first ingest request to the
// last fragment.
func replayRound(d *daemon, rp *replay, r *round, rasOK, jobOK []bool) (
	frags map[string][]byte, codes map[string]int, summary []byte, err error) {
	ingest := oneConn()
	st := r.serve
	due := make(chan time.Time, rp.queryCount)
	queries := make(chan queryResult, 1)
	go func() { queries <- queryLoop(oneConn(), d.base, rp.queries, due) }()
	stopQueries := sync.OnceValue(func() queryResult { close(due); return <-queries })
	defer stopQueries()
	published := false
	send := func(path string, body []byte) (int, []byte, time.Duration, error) {
		status, resp, lat, err := call(ingest, http.MethodPost, d.base+path, body)
		r.attempted++
		if err == nil && status != http.StatusOK {
			r.failed++
		}
		return status, resp, lat, err
	}
	sendBatch := func(path string, body []byte) (bool, time.Duration, error) {
		if published {
			due <- time.Now()
		}
		status, _, lat, err := send(path, body)
		return status == http.StatusOK, lat, err
	}
	t0 := time.Now()
	for i := range rp.ras {
		var lat time.Duration
		if rasOK[i], lat, err = sendBatch("/v1/ingest/ras", rp.ras[i]); err != nil {
			return nil, nil, nil, err
		}
		st.ingestRAS = append(st.ingestRAS, lat)
		if jobOK[i], lat, err = sendBatch("/v1/ingest/job", rp.job[i]); err != nil {
			return nil, nil, nil, err
		}
		st.ingestJob = append(st.ingestJob, lat)
		if (i+1)%publishEvery == 0 && i+1 < len(rp.ras) {
			if _, _, lat, err = send("/v1/publish", nil); err != nil {
				return nil, nil, nil, err
			}
			st.publish = append(st.publish, lat)
			published = true
		}
	}
	q := stopQueries()
	if q.err != nil {
		return nil, nil, nil, q.err
	}
	if len(q.latencies) != rp.queryCount {
		return nil, nil, nil, fmt.Errorf("sent %d queries, planned %d", len(q.latencies), rp.queryCount)
	}
	r.attempted += rp.queryCount
	r.failed += q.failed
	r.latencies = q.latencies
	status, summary, lat, err := send("/v1/quiesce", nil)
	if err != nil {
		return nil, nil, nil, err
	}
	if status != http.StatusOK {
		return nil, nil, nil, fmt.Errorf("quiesce: HTTP %d: %s", status, summary)
	}
	st.quiesce = lat
	tq := time.Now()
	frags, codes = make(map[string][]byte), make(map[string]int)
	for _, name := range fragmentNames() {
		status, body, _, err := call(ingest, http.MethodGet, d.base+"/v1/report/"+name, nil)
		r.attempted++
		if err != nil {
			return nil, nil, nil, err
		}
		frags[name], codes[name] = body, status
	}
	st.report = time.Since(tq)
	r.u.Wall = time.Since(t0)
	return frags, codes, summary, nil
}

// checkServed compares a quiesced daemon's epoch summary and report
// fragments with the batch reference over the same records.
func checkServed(ref *reference, summary []byte, frags map[string][]byte, codes map[string]int, sealed *int) error {
	var sum struct {
		RASRecords     int `json:"ras_records"`
		FatalRecords   int `json:"fatal_records"`
		FilteredEvents int `json:"filtered_events"`
		Interruptions  int `json:"interruptions"`
		Jobs           int `json:"jobs"`
		SealedSegments int `json:"sealed_segments"`
	}
	if err := json.Unmarshal(summary, &sum); err != nil {
		return fmt.Errorf("quiesce summary: %w", err)
	}
	sc := ref.scan
	got := []int{sum.RASRecords, sum.FatalRecords, sum.Jobs, sum.FilteredEvents, sum.Interruptions}
	want := []int{sc.RASLines, sc.Fatal, sc.JobLines, ref.filter[3], ref.interr}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("epoch counts (RAS, FATAL, jobs, events, interruptions) = %v, reference %v", got, want)
	}
	*sealed = sum.SealedSegments
	for _, name := range fragmentNames() {
		if msg, bad := ref.fragErr[name]; bad {
			if codes[name] != http.StatusConflict || !bytes.Contains(frags[name], []byte(jsonEscape(msg))) {
				return fmt.Errorf("fragment %s: HTTP %d %q; the batch path fails with %q", name, codes[name], frags[name], msg)
			}
			continue
		}
		if codes[name] != http.StatusOK {
			return fmt.Errorf("fragment %s: HTTP %d", name, codes[name])
		}
		if err := sameReport(frags[name], ref.frags[name], ref.ties); err != nil {
			return fmt.Errorf("fragment %s unlike the batch path's: %w", name, err)
		}
	}
	var report []byte
	for _, name := range []string{"t1", "t2", "t3", "pipeline"} {
		report = append(append(report, frags[name]...), '\n')
	}
	return checkReport(report, sc)
}

// jsonEscape returns s as it appears inside a JSON string.
func jsonEscape(s string) string {
	b, _ := json.Marshal(s)
	return string(b[1 : len(b)-1])
}
