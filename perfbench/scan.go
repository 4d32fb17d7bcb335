package main

// The reference scan reads the two logs line by line with nothing but
// the standard library: it shares no code with the program, so the
// counts and example records it derives are an independent check on
// what the program reports. It knows only the documented line formats:
//
//	RAS: RECID|MSG_ID|COMPONENT|SUBCOMPONENT|ERRCODE|SEVERITY|EVENT_TIME|FLAGS|LOCATION|SERIALNUMBER|MESSAGE
//	job: ID|NAME|EXEC_FILE|QUEUE|START|END|PARTITION|USER|PROJECT
//
// EVENT_TIME is UTC "2006-01-02-15.04.05.000000"; job times are epoch
// seconds with two decimals.

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// rasFields and jobFields name the fields of one log line, in order.
var (
	rasFields = []string{"RECID", "MSG_ID", "COMPONENT", "SUBCOMPONENT", "ERRCODE",
		"SEVERITY", "EVENT_TIME", "FLAGS", "LOCATION", "SERIALNUMBER", "MESSAGE"}
	jobFields = []string{"ID", "NAME", "EXEC_FILE", "QUEUE", "START", "END",
		"PARTITION", "USER", "PROJECT"}
)

// scan is what the reference scan derives from one pair of logs.
type scan struct {
	RASLines, JobLines int
	RASBytes, JobBytes int
	Fatal              int
	// FirstNS and LastNS bound the campaign: the earliest RAS event or
	// job queue time, and the latest RAS event or job end time.
	FirstNS, LastNS int64
	// FirstFatal holds the fields of the first FATAL line in
	// (EVENT_TIME, RECID) order; FirstJob those of the first job in
	// (END, ID) order.
	FirstFatal []string
	FirstJob   []string
}

// Days is the campaign length as the report counts it: whole days
// between the first and last timestamp, plus one.
func (s *scan) Days() int { return int((s.LastNS-s.FirstNS)/int64(24*time.Hour)) + 1 }

// rasKey orders RAS lines: event time in microseconds, then RECID.
type rasKey struct{ us, id int64 }

func (a rasKey) less(b rasKey) bool { return a.us < b.us || (a.us == b.us && a.id < b.id) }

// jobKey orders job lines: end time in hundredths of a second, then ID.
type jobKey struct{ cs, id int64 }

func (a jobKey) less(b jobKey) bool { return a.cs < b.cs || (a.cs == b.cs && a.id < b.id) }

// lines calls f for each newline-terminated line of data, numbered
// from 1. A final line without a newline is an error: both writers end
// every line.
func lines(data []byte, f func(n int, line []byte) error) error {
	n := 0
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return fmt.Errorf("line %d: no trailing newline", n+1)
		}
		n++
		if err := f(n, data[:i]); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		data = data[i+1:]
	}
	return nil
}

func splitFields(line []byte, want int) ([]string, error) {
	f := strings.Split(string(line), "|")
	if len(f) != want {
		return nil, fmt.Errorf("%d fields, want %d", len(f), want)
	}
	return f, nil
}

// parseEventTime turns "2006-01-02-15.04.05.000000" into Unix
// microseconds.
func parseEventTime(s string) (int64, error) {
	if len(s) != 26 {
		return 0, fmt.Errorf("bad EVENT_TIME %q", s)
	}
	num := func(a, b int) int {
		v, err := strconv.Atoi(s[a:b])
		if err != nil {
			return -1
		}
		return v
	}
	y, mo, d, h, mi, se, us := num(0, 4), num(5, 7), num(8, 10), num(11, 13), num(14, 16), num(17, 19), num(20, 26)
	if y < 0 || mo < 1 || mo > 12 || d < 1 || d > 31 || h < 0 || h > 23 || mi < 0 || mi > 59 || se < 0 || se > 59 || us < 0 {
		return 0, fmt.Errorf("bad EVENT_TIME %q", s)
	}
	t := time.Date(y, time.Month(mo), d, h, mi, se, 0, time.UTC)
	return t.Unix()*1e6 + int64(us), nil
}

// parseCentis turns epoch seconds with two decimals into hundredths.
func parseCentis(s string) (int64, error) {
	i := strings.IndexByte(s, '.')
	if i < 0 || len(s)-i != 3 {
		return 0, fmt.Errorf("bad epoch time %q", s)
	}
	sec, err1 := strconv.ParseInt(s[:i], 10, 64)
	frac, err2 := strconv.ParseInt(s[i+1:], 10, 64)
	if err1 != nil || err2 != nil || sec < 0 || frac < 0 {
		return 0, fmt.Errorf("bad epoch time %q", s)
	}
	return sec*100 + frac, nil
}

// scanLogs derives the reference values from the raw bytes of a RAS
// log and a job log, and checks properties every generated campaign
// has: RAS lines ordered by (EVENT_TIME, RECID) with unique RECIDs,
// and jobs with queue <= start <= end and unique IDs.
func scanLogs(ras, job []byte) (*scan, error) {
	s := &scan{RASBytes: len(ras), JobBytes: len(job)}
	var prev rasKey
	var fatalKey rasKey
	first, last := int64(0), int64(0)
	see := func(ns int64) {
		if first == 0 || ns < first {
			first = ns
		}
		if ns > last {
			last = ns
		}
	}
	recIDs := make(map[int64]struct{})
	err := lines(ras, func(n int, line []byte) error {
		f, err := splitFields(line, len(rasFields))
		if err != nil {
			return err
		}
		id, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad RECID %q", f[0])
		}
		us, err := parseEventTime(f[6])
		if err != nil {
			return err
		}
		k := rasKey{us, id}
		if n > 1 && k.less(prev) {
			return fmt.Errorf("RECID %d out of (EVENT_TIME, RECID) order", id)
		}
		if _, dup := recIDs[id]; dup {
			return fmt.Errorf("duplicate RECID %d", id)
		}
		recIDs[id], prev = struct{}{}, k
		s.RASLines++
		see(us * 1000)
		if f[5] == "FATAL" {
			s.Fatal++
			if s.FirstFatal == nil || k.less(fatalKey) {
				s.FirstFatal, fatalKey = f, k
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("RAS log: %w", err)
	}
	var jobK jobKey
	jobIDs := make(map[int64]struct{})
	err = lines(job, func(_ int, line []byte) error {
		j, err := parseJob(line)
		if err != nil {
			return err
		}
		if j.queue > j.start || j.start > j.end {
			return fmt.Errorf("job %d: queue %d, start %d, end %d out of order", j.id, j.queue, j.start, j.end)
		}
		if _, dup := jobIDs[j.id]; dup {
			return fmt.Errorf("duplicate job ID %d", j.id)
		}
		jobIDs[j.id] = struct{}{}
		s.JobLines++
		see(j.queue * 1e7)
		see(j.end * 1e7)
		if k := j.key(); s.FirstJob == nil || k.less(jobK) {
			s.FirstJob, jobK = j.fields, k
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("job log: %w", err)
	}
	s.FirstNS, s.LastNS = first, last
	return s, nil
}

// scannedJob is one parsed job line.
type scannedJob struct {
	fields            []string
	id                int64
	queue, start, end int64 // hundredths of a second
}

func (j scannedJob) key() jobKey { return jobKey{j.end, j.id} }

func parseJob(line []byte) (scannedJob, error) {
	f, err := splitFields(line, len(jobFields))
	if err != nil {
		return scannedJob{}, err
	}
	j := scannedJob{fields: f}
	if j.id, err = strconv.ParseInt(f[0], 10, 64); err != nil {
		return j, fmt.Errorf("bad job ID %q", f[0])
	}
	for i, dst := range []*int64{&j.queue, &j.start, &j.end} {
		if *dst, err = parseCentis(f[3+i]); err != nil {
			return j, err
		}
	}
	return j, nil
}

// orderedJobLines splits a job log into lines and drops every line
// whose (END, ID) key falls behind the last line kept: the order the
// daemon's ingest cursor enforces. It returns the kept lines, each
// with its newline, and how many it dropped.
func orderedJobLines(job []byte) (kept [][]byte, dropped int, err error) {
	var last jobKey
	err = lines(job, func(n int, line []byte) error {
		j, err := parseJob(line)
		if err != nil {
			return err
		}
		if k := j.key(); len(kept) > 0 && k.less(last) {
			dropped++
			return nil
		}
		last = j.key()
		kept = append(kept, line[:len(line)+1]) // lines passes a slice of job, so the newline follows
		return nil
	})
	return kept, dropped, err
}

// firstJobInversion returns the 0-based index of the first job line
// whose (END, ID) key is below its predecessor's, or -1.
func firstJobInversion(job []byte) (int, error) {
	at := -1
	var prev jobKey
	err := lines(job, func(n int, line []byte) error {
		j, err := parseJob(line)
		if err != nil {
			return err
		}
		if at < 0 && n > 1 && j.key().less(prev) {
			at = n - 1
		}
		prev = j.key()
		return nil
	})
	return at, err
}
