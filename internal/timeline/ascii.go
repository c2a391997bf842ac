package timeline

import (
	"fmt"
	"io"
	"strings"
)

// asciiColWidth is each thread lane's column width in the terminal view.
const asciiColWidth = 22

// RenderASCII writes a terminal view of the timeline: per execution, one
// column per thread and one row per logical timestamp, events in their
// lane. A quick look without leaving the terminal; the Chrome artifact is
// the one to load for anything bigger than a screenful.
func RenderASCII(w io.Writer, tl *Timeline) {
	for i, ex := range tl.Execs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		renderExec(w, tl.Program, ex)
	}
}

func renderExec(w io.Writer, program string, ex *Execution) {
	title := ex.Name
	if program != "" {
		title = program + ": " + ex.Name
	}
	fmt.Fprintf(w, "== %s ==\n", title)
	var hdr strings.Builder
	hdr.WriteString("      ")
	for t := 0; t < ex.Threads; t++ {
		hdr.WriteString(pad(fmt.Sprintf("t%d", t)))
	}
	fmt.Fprintln(w, strings.TrimRight(hdr.String(), " "))

	// arrowAt annotates the source row of each arrow.
	arrowAt := map[int64]string{}
	for _, a := range ex.Arrows {
		tag := fmt.Sprintf("%s->t%d", a.Kind, a.ToThread)
		if prev, ok := arrowAt[a.FromTime]; ok {
			tag = prev + "," + tag
		}
		arrowAt[a.FromTime] = tag
	}

	for _, e := range ex.Events {
		var row strings.Builder
		fmt.Fprintf(&row, "%5d ", e.Time)
		for t := 0; t < ex.Threads; t++ {
			cell := ""
			if t == e.Thread {
				cell = e.Label
				if e.Pos != "" {
					cell += " @" + e.Pos
				}
			}
			row.WriteString(pad(cell))
		}
		if tag, ok := arrowAt[e.Time]; ok {
			row.WriteString("  ~" + tag)
		}
		fmt.Fprintln(w, strings.TrimRight(row.String(), " "))
	}
}

// pad clips or right-pads a cell to the lane width.
func pad(s string) string {
	if len(s) > asciiColWidth-2 {
		s = s[:asciiColWidth-5] + "..."
	}
	return s + strings.Repeat(" ", asciiColWidth-len(s))
}
