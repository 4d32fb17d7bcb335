package main

// Checks of a rendered report against the independent scan: Table I's
// sizes, counts and span, Table II's example FATAL record, Table III's
// example job and the cascade counts of the pipeline table.

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// table is one rendered table: its rows, split into cells at the
// column offsets the dashed rule under the header gives.
type table [][]string

// findTable locates the table titled title in a report and splits its
// rows. Tables are a title line, a header, a rule of dashes and rows,
// ending at a blank line.
func findTable(report []byte, title string) (table, error) {
	ls := strings.Split(string(report), "\n")
	for i, l := range ls {
		if l != title || i+2 >= len(ls) {
			continue
		}
		rule := ls[i+2]
		var starts []int
		for j := 0; j < len(rule); j++ {
			if rule[j] == '-' && (j == 0 || rule[j-1] == ' ') {
				starts = append(starts, j)
			}
		}
		var t table
		for _, row := range ls[i+3:] {
			if strings.TrimSpace(row) == "" {
				break
			}
			cells := make([]string, len(starts))
			for k, s := range starts {
				e := len(row)
				if k+1 < len(starts) {
					e = min(starts[k+1], len(row))
				}
				if s < e {
					cells[k] = strings.TrimSpace(row[s:e])
				}
			}
			t = append(t, cells)
		}
		return t, nil
	}
	return nil, fmt.Errorf("no table %q", title)
}

// field returns the cell in column col of the row whose first cell is
// key.
func (t table) field(key string, col int) (string, error) {
	for _, r := range t {
		if r[0] == key && col < len(r) {
			return r[col], nil
		}
	}
	return "", fmt.Errorf("no row %q", key)
}

// humanBytes formats a byte count the way Table I's Size column does.
func humanBytes(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// checkReport compares a full report (or the concatenated t1, t2, t3
// and pipeline fragments) with the scan of the logs it was made from.
func checkReport(report []byte, sc *scan) error {
	t1, err := findTable(report, "Table I: summary of the RAS log and job log")
	if err != nil {
		return err
	}
	day := func(ns int64) string { return time.Unix(0, ns).UTC().Format("2006-01-02") }
	want := map[string][]string{
		"RAS": {"RAS", strconv.Itoa(sc.Days()), day(sc.FirstNS), day(sc.LastNS), humanBytes(sc.RASBytes), strconv.Itoa(sc.RASLines)},
		"Job": {"Job", strconv.Itoa(sc.Days()), day(sc.FirstNS), day(sc.LastNS), humanBytes(sc.JobBytes), strconv.Itoa(sc.JobLines)},
	}
	for key, w := range want {
		found := false
		for _, r := range t1 {
			if r[0] == key {
				found = true
				if strings.Join(r, "|") != strings.Join(w, "|") {
					return fmt.Errorf("Table I %s row %q, scan gives %q", key, r, w)
				}
			}
		}
		if !found {
			return fmt.Errorf("Table I has no %s row", key)
		}
	}

	t2, err := findTable(report, "Table II: example RAS event record")
	if err != nil {
		return err
	}
	for i, name := range rasFields {
		key := name
		got, err := t2.field(key, 1)
		if err != nil {
			return fmt.Errorf("Table II: %w", err)
		}
		if got != strings.TrimSpace(sc.FirstFatal[i]) {
			return fmt.Errorf("Table II %s = %q, first FATAL line has %q", key, got, sc.FirstFatal[i])
		}
	}

	t3, err := findTable(report, "Table III: example job record")
	if err != nil {
		return err
	}
	t3Keys := []string{"Job ID", "Job Name", "Execution File", "Queuing Time", "Starting Time",
		"End Time", "Location", "User", "Project"}
	for i, key := range t3Keys {
		got, err := t3.field(key, 1)
		if err != nil {
			return fmt.Errorf("Table III: %w", err)
		}
		if got != strings.TrimSpace(sc.FirstJob[i]) {
			return fmt.Errorf("Table III %s = %q, first job line has %q", key, got, sc.FirstJob[i])
		}
	}

	pl, err := findTable(report, "Methodology pipeline (Figure 1)")
	if err != nil {
		return err
	}
	prev := -1
	for _, stage := range []string{"raw FATAL records", "after temporal filtering",
		"after spatial filtering", "after causality filtering"} {
		v, err := pl.field(stage, 1)
		if err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("pipeline %s: %q", stage, v)
		}
		if prev < 0 && n != sc.Fatal {
			return fmt.Errorf("pipeline raw FATAL records = %d, scan counts %d", n, sc.Fatal)
		}
		if n <= 0 || (prev >= 0 && n > prev) {
			return fmt.Errorf("pipeline %s = %d after %d: counts must be positive and non-increasing", stage, n, prev)
		}
		prev = n
	}
	return nil
}

// figure2Title heads the Figure 2 section of a report and the f2
// fragment.
const figure2Title = "Figure 2: identifying application errors by relocation"

// figure2Ties records, for each rank of the reference's Figure 2
// examples, every example (by code and executable) whose first
// interruption ends at the same instant as the example of that rank.
// The program orders the examples by that instant alone, over a map,
// so examples that tie come out in any order, run to run, and at the
// last rank any of them may be the one shown. A rank with one example
// has no tie. See README.md, "Open faults".
type figure2Ties [][]string

// figure2Key names a Figure 2 example by its code and executable; the
// program shows one example per pair.
func figure2Key(code, exec string) string { return code + " " + exec }

// sameReport checks that got, a report or a fragment, equals want byte
// for byte, except that Figure 2 examples tied on their first
// interruption may come out in another order, or at the last rank as
// another example of the tie. Every byte outside the Figure 2 section
// must be equal; so must every example of a rank without a tie, and
// every shown example that want shows too, apart from its rank.
func sameReport(got, want []byte, ties figure2Ties) error {
	if bytes.Equal(got, want) {
		return nil
	}
	gPre, gBlocks, gPost := splitFigure2(got)
	wPre, wBlocks, wPost := splitFigure2(want)
	if wBlocks == nil || !bytes.Equal(gPre, wPre) || !bytes.Equal(gPost, wPost) {
		return fmt.Errorf("%d bytes unlike the reference's %d outside Figure 2", len(got), len(want))
	}
	if len(gBlocks) != len(wBlocks) || len(wBlocks) > len(ties) {
		return fmt.Errorf("Figure 2 shows %d examples, the reference %d", len(gBlocks), len(wBlocks))
	}
	wAt := map[string]int{}
	for i, b := range wBlocks {
		wAt[b.key] = i
	}
	seen := map[string]bool{}
	for i, g := range gBlocks {
		w := wBlocks[i]
		if len(ties[i]) < 2 {
			if g.text != w.text {
				return fmt.Errorf("Figure 2 example %d is %q, the reference's %q", i+1, g.key, w.key)
			}
			continue
		}
		tied := false
		for _, k := range ties[i] {
			tied = tied || k == g.key
		}
		if !tied || seen[g.key] {
			return fmt.Errorf("Figure 2 example %d is %q, not one of the examples tied at that rank %q", i+1, g.key, ties[i])
		}
		seen[g.key] = true
		if g.when != w.when {
			return fmt.Errorf("Figure 2 example %d was interrupted %s, the reference's %s", i+1, g.when, w.when)
		}
		if j, ok := wAt[g.key]; ok && g.text != wBlocks[j].text {
			return fmt.Errorf("Figure 2 example %q differs from the reference's", g.key)
		}
	}
	return nil
}

// figure2Block is one rendered Figure 2 example.
type figure2Block struct {
	key  string // figure2Key of the example
	when string // when its first interruption was logged, to the minute
	text string // its lines, without the rank
}

// splitFigure2 cuts a report into the bytes before the Figure 2
// examples, the examples, and the bytes after them. Examples are the
// indented lines under the title, each starting at an "example N:"
// line. Without a Figure 2 section, blocks is nil and pre is report.
func splitFigure2(report []byte) (pre []byte, blocks []figure2Block, post []byte) {
	at := bytes.Index(report, []byte(figure2Title+"\n"))
	if at < 0 || (at > 0 && report[at-1] != '\n') {
		return report, nil, nil
	}
	start := at + len(figure2Title) + 1
	end := start
	for end < len(report) && report[end] == ' ' {
		nl := bytes.IndexByte(report[end:], '\n')
		if nl < 0 {
			break
		}
		end += nl + 1
	}
	blocks = []figure2Block{}
	for _, l := range strings.SplitAfter(string(report[start:end]), "\n") {
		t := strings.TrimSpace(l)
		if rest, ok := strings.CutPrefix(t, "example "); ok {
			_, code, _ := strings.Cut(rest, ": ")
			blocks = append(blocks, figure2Block{key: code, text: "example: " + code + "\n"})
			continue
		}
		if len(blocks) == 0 || t == "" {
			continue
		}
		b := &blocks[len(blocks)-1]
		b.text += l
		if exec, ok := strings.CutPrefix(t, "executable"); ok {
			b.key = figure2Key(b.key, strings.TrimSpace(exec))
		}
		if when, ok := strings.CutPrefix(t, "interrupted"); ok {
			b.when, _, _ = strings.Cut(strings.TrimSpace(when), " on ")
		}
	}
	return report[:start], blocks, report[end:]
}
