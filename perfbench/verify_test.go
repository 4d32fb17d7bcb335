package main

import (
	"fmt"
	"strings"
	"testing"
)

// figure2Report renders a report around a Figure 2 section holding the
// examples given as (code, exec, minute) triples.
func figure2Report(examples ...[3]string) []byte {
	var sb strings.Builder
	sb.WriteString("Job-related filtering (Obs. 3)\ninput events  79\n\n" + figure2Title + "\n")
	for i, ex := range examples {
		fmt.Fprintf(&sb, "  example %d: %s\n    executable   %s\n    interrupted  2009-01-15 %s on R40-M0\n"+
			"    => the error follows the code, not the location: application error\n", i+1, ex[0], ex[1], ex[2])
	}
	sb.WriteString("\nFigure 3: something else\n")
	return []byte(sb.String())
}

func TestSameReportFigure2Ties(t *testing.T) {
	a := [3]string{"code_a", "/bin/a", "22:16"}
	b := [3]string{"code_b", "/bin/b", "22:16"}
	c := [3]string{"code_c", "/bin/c", "23:40"}
	d := [3]string{"code_d", "/bin/d", "23:40"}
	key := func(ex [3]string) string { return figure2Key(ex[0], ex[1]) }
	// a and b tie at rank 1 and 2; c and d tie at rank 3 and beyond.
	ties := figure2Ties{{key(a), key(b)}, {key(a), key(b)}, {key(c), key(d)}, {key(c), key(d)}}
	noTies := figure2Ties{{key(a)}, {key(b)}, {key(c)}, {key(d)}}
	want := figure2Report(a, b, c)

	for _, tc := range []struct {
		name string
		got  []byte
		ties figure2Ties
		ok   bool
	}{
		{"identical", figure2Report(a, b, c), noTies, true},
		{"tied pair swapped", figure2Report(b, a, c), ties, true},
		{"last rank another tied example", figure2Report(a, b, d), ties, true},
		{"swapped without a tie", figure2Report(b, a, c), noTies, false},
		{"untied example out of place", figure2Report(a, c, b), ties, false},
		{"tied example shown twice", figure2Report(a, a, c), ties, false},
		{"example missing", figure2Report(a, b), ties, false},
		{"bytes outside differ", append(figure2Report(b, a, c), 'x'), ties, false},
		{"tied example's lines differ", []byte(strings.Replace(string(figure2Report(b, a, c)), "on R40-M0", "on R41-M0", 1)), ties, false},
	} {
		err := sameReport(tc.got, want, tc.ties)
		if (err == nil) != tc.ok {
			t.Errorf("%s: sameReport = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
	// A fragment without Figure 2 must match byte for byte.
	if err := sameReport([]byte("Table I\n"), []byte("Table 1\n"), ties); err == nil {
		t.Error("sameReport accepted a different fragment without Figure 2")
	}
}
