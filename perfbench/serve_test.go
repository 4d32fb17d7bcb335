package main

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/serve"
)

// TestAcceptedReference feeds a small campaign to an in-process engine
// with one job batch the engine must reject, and checks that the
// reference built from the accepted batches matches every fragment the
// quiesced engine renders.
func TestAcceptedReference(t *testing.T) {
	_, ras, job, err := generate(3, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	var rasLines, jobLines [][]byte
	lines(ras, func(_ int, l []byte) error { rasLines = append(rasLines, l[:len(l)+1]); return nil })
	lines(job, func(_ int, l []byte) error { jobLines = append(jobLines, l[:len(l)+1]); return nil })
	const n = 8
	rasB, jobB := batches(rasLines, n), batches(jobLines, n)

	// Swap two adjacent lines of batch 3 so that it goes backwards in
	// (END, ID) order: the engine must refuse the whole batch.
	bad := bytes.SplitAfter(jobB[3], []byte("\n"))
	bad[1], bad[2] = bad[2], bad[1]
	jobB[3] = bytes.Join(bad, nil)

	eng, err := serve.NewEngine(serve.Config{DataDir: t.TempDir(), SealRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	rasOK, jobOK := make([]bool, n), make([]bool, n)
	for i := 0; i < n; i++ {
		recs, err := raslog.NewReader(bytes.NewReader(rasB[i])).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		rasOK[i] = eng.IngestRAS(recs) == nil
		jobs, err := joblog.NewReader(bytes.NewReader(jobB[i])).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		err = eng.IngestJobs(jobs)
		var oe *serve.OrderError
		if err != nil && !errors.As(err, &oe) {
			t.Fatal(err)
		}
		jobOK[i] = err == nil
	}
	for i := 0; i < n; i++ {
		if !rasOK[i] || jobOK[i] != (i != 3) {
			t.Fatalf("accepted RAS %v, jobs %v; want only job batch 3 refused", rasOK, jobOK)
		}
	}
	ep, err := eng.Quiesce()
	if err != nil {
		t.Fatal(err)
	}

	rasLog, jobLog := acceptedLogs(rasB, jobB, rasOK, jobOK)
	if len(rasLog) != len(ras) || len(jobLog) != len(job)-len(jobB[3]) {
		t.Fatalf("accepted logs of %d and %d bytes", len(rasLog), len(jobLog))
	}
	ref, _, err := buildReference(rasLog, jobLog, true)
	if err != nil {
		t.Fatal(err)
	}
	frags, codes := map[string][]byte{}, map[string]int{}
	for _, name := range fragmentNames() {
		body, err := ep.Fragment(name)
		frags[name], codes[name] = body, 200
		if err != nil {
			frags[name], codes[name] = []byte(jsonEscape(err.Error())), 409
		}
	}
	var sealed int
	if err := checkServed(ref, ep.Summary(), frags, codes, &sealed); err != nil {
		t.Fatal(err)
	}

	// The whole campaign's reference must not match: the check sees the
	// missing batch.
	full, _, err := buildReference(ras, job, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServed(full, ep.Summary(), frags, codes, &sealed); err == nil {
		t.Error("the engine's output matched the reference over every batch, rejected one included")
	}
}

func TestBatchesKeepEveryLine(t *testing.T) {
	ls := [][]byte{[]byte("a\n"), []byte("b\n"), []byte("c\n"), []byte("d\n"), []byte("e\n")}
	for n := 1; n <= 5; n++ {
		var all []byte
		for _, b := range batches(ls, n) {
			all = append(all, b...)
		}
		if string(all) != "a\nb\nc\nd\ne\n" {
			t.Errorf("%d batches rejoin to %q", n, all)
		}
	}
}

func TestOrderedJobLines(t *testing.T) {
	job := []byte("1|N|/x|1.00|2.00|5.00|R00|u|p\n" +
		"3|N|/x|1.00|2.00|6.00|R01|u|p\n" +
		"2|N|/x|1.00|2.00|6.00|R02|u|p\n" + // same END as job 3, lower ID: behind the cursor
		"4|N|/x|1.00|2.00|7.00|R03|u|p\n")
	kept, dropped, err := orderedJobLines(job)
	if err != nil || dropped != 1 || len(kept) != 3 || !bytes.HasPrefix(kept[2], []byte("4|")) {
		t.Errorf("kept %q, dropped %d, err %v", kept, dropped, err)
	}
	at, err := firstJobInversion(job)
	if err != nil || at != 2 {
		t.Errorf("first inversion at %d (%v), want line index 2", at, err)
	}
}
