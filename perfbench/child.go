package main

// The CLI workloads: each operation runs one shipped entry point as a
// child process, times it from outside and reads its resource usage
// from the kernel's accounting of the child (Linux rusage, through the
// spawner).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// usage is what one child process cost.
type usage struct {
	Wall  time.Duration
	CPU   time.Duration // user plus system
	RSSKB int64         // peak resident set
}

// peakRSSKB reads the peak resident set of a running process.
func peakRSSKB(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// generateOp runs bgpgen at the campaign's seed and checks that it
// writes exactly the logs set-up made in-process.
func generateOp(b *bench) (usage, error) {
	ras, job := filepath.Join(b.work, "gen-ras.log"), filepath.Join(b.work, "gen-job.log")
	defer os.Remove(ras)
	defer os.Remove(job)
	_, _, u, err := b.sp.run(b.bin("bgpgen"), "-seed", strconv.FormatInt(b.c.seed, 10),
		"-days", strconv.Itoa(campaignDays), "-noise", strconv.FormatFloat(b.c.noise, 'g', -1, 64),
		"-ras", ras, "-job", job)
	if err != nil {
		return u, err
	}
	for _, f := range []struct {
		path string
		want []byte
	}{{ras, b.c.ras}, {job, b.c.job}} {
		got, err := os.ReadFile(f.path)
		if err != nil {
			return u, err
		}
		if !bytes.Equal(got, f.want) {
			return u, mismatch(fmt.Errorf("bgpgen wrote %s (%d bytes) unlike the oracle's log (%d bytes)",
				filepath.Base(f.path), len(got), len(f.want)))
		}
	}
	return u, nil
}

// analyzeOp runs coanalyze over the campaign and checks its report
// against the reference.
func analyzeOp(b *bench) (usage, error) {
	out, _, u, err := b.sp.run(b.bin("coanalyze"), "-ras", b.c.rasPath, "-job", b.c.jobPath)
	if err != nil {
		return u, err
	}
	if err := sameReport(out, b.c.ref.report, b.c.ref.ties); err != nil {
		return u, mismatch(fmt.Errorf("coanalyze printed a report unlike the reference: %w", err))
	}
	return u, nil
}

// memBudget is the bounded run's budget: a tenth of the RAS log.
func (b *bench) memBudget() int { return len(b.c.ras) / 10 }

var (
	flushesRe = regexp.MustCompile(`budget_flushes=(\d+)`)
	skippedRe = regexp.MustCompile(`zone_skipped=(\d+)`)
)

// boundedOp runs coanalyze -mem-budget and checks that its report is
// the reference, and that it both spilled and skipped segments.
func boundedOp(b *bench) (usage, error) {
	spill := filepath.Join(b.work, "spill")
	defer os.RemoveAll(spill)
	out, stderr, u, err := b.sp.run(b.bin("coanalyze"), "-mem-budget", strconv.Itoa(b.memBudget()),
		"-spill-dir", spill, "-ras", b.c.rasPath, "-job", b.c.jobPath)
	if err != nil {
		return u, err
	}
	if err := sameReport(out, b.c.ref.report, b.c.ref.ties); err != nil {
		return u, mismatch(fmt.Errorf("coanalyze -mem-budget printed a report unlike the reference: %w", err))
	}
	for _, re := range []*regexp.Regexp{flushesRe, skippedRe} {
		m := re.FindSubmatch(stderr)
		if m == nil {
			return u, mismatch(fmt.Errorf("coanalyze -mem-budget reported no %s", re))
		}
		if n, _ := strconv.Atoi(string(m[1])); n < 1 {
			return u, mismatch(fmt.Errorf("coanalyze -mem-budget reported %s", m[0]))
		}
	}
	return u, nil
}
