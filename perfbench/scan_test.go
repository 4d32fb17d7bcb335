package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/raslog"
)

// TestScanMatchesProgram checks the independent line scan against the
// program's own counts on a small generated campaign.
func TestScanMatchesProgram(t *testing.T) {
	camp, ras, job, err := generate(3, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scanLogs(ras, job)
	if err != nil {
		t.Fatal(err)
	}
	fatal := camp.RAS.Fatal()
	if sc.RASLines != camp.RAS.Len() || sc.Fatal != len(fatal) || sc.JobLines != camp.Jobs.Len() {
		t.Errorf("scan counts %d RAS, %d FATAL, %d jobs; program has %d, %d, %d",
			sc.RASLines, sc.Fatal, sc.JobLines, camp.RAS.Len(), len(fatal), camp.Jobs.Len())
	}
	if sc.RASBytes != len(ras) || sc.JobBytes != len(job) {
		t.Errorf("scan sizes %d, %d; logs are %d, %d bytes", sc.RASBytes, sc.JobBytes, len(ras), len(job))
	}
	if got, want := strings.Join(sc.FirstFatal, "|"), fatal[0].MarshalLine(); got != want {
		t.Errorf("first FATAL line\n got %s\nwant %s", got, want)
	}
	if got, want := strings.Join(sc.FirstJob, "|"), camp.Jobs.All()[0].MarshalLine(); got != want {
		t.Errorf("first job line\n got %s\nwant %s", got, want)
	}
	rFirst, rLast := camp.RAS.Span()
	jFirst, jLast := camp.Jobs.Span()
	// Job times are logged to the hundredth of a second, so the scan's
	// span may differ from the program's by less than that.
	near := func(a, b int64) bool { return a-b < 1e7 && b-a < 1e7 }
	if !near(sc.FirstNS, min(rFirst.UnixNano(), jFirst.UnixNano())) || !near(sc.LastNS, max(rLast.UnixNano(), jLast.UnixNano())) {
		t.Errorf("scan span [%d, %d]; program's RAS [%v, %v], jobs [%v, %v]", sc.FirstNS, sc.LastNS, rFirst, rLast, jFirst, jLast)
	}
}

func TestScanRejectsDisorder(t *testing.T) {
	_, ras, job, err := generate(3, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	ls := strings.SplitAfter(string(ras), "\n")
	ls[1], ls[2] = ls[2], ls[1]
	if _, err := scanLogs([]byte(strings.Join(ls, "")), job); err == nil {
		t.Error("RAS lines out of order passed")
	}
	js := strings.SplitAfter(string(job), "\n")
	js[1] = js[0]
	if _, err := scanLogs(ras, []byte(strings.Join(js, ""))); err == nil {
		t.Error("duplicate job ID passed")
	}
	if _, err := scanLogs(ras[:len(ras)-1], job); err == nil {
		t.Error("RAS log without a final newline passed")
	}
}

func TestParseEventTime(t *testing.T) {
	rec := raslog.Record{EventTime: mustTime(t, "2009-01-05-00.00.02.185817")}
	us, err := parseEventTime(raslog.FormatEventTime(rec.EventTime))
	if err != nil || us != rec.EventTime.UnixMicro() {
		t.Errorf("parseEventTime = %d, %v; want %d", us, err, rec.EventTime.UnixMicro())
	}
}

func mustTime(t *testing.T, s string) (tm time.Time) {
	t.Helper()
	tm, err := raslog.ParseEventTime(s)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}
