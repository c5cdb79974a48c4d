// The CSV exporter, and the kind-specific argument naming it shares with
// the Perfetto writer (timeline.go).
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/bus"
)

// argNames gives the kind-specific labels for Arg and Arg2 ("" = omit).
func argNames(k Kind) (string, string) {
	switch k {
	case KindEpoch:
		return "capsRevoked", "pagesVisited"
	case KindSweep:
		return "worker", "pages"
	case KindFault:
		return "va", "concurrentVisit"
	case KindQuarTrigger:
		return "quarBytes", "clearTarget"
	case KindQuarBlock:
		return "waitEpoch", ""
	case KindQuarFlush:
		return "bytes", "allocs"
	case KindPaint, KindUnpaint:
		return "addr", "len"
	case KindChunk:
		return "base", "len"
	case KindInject:
		return "class", "detail"
	case KindRecovery:
		return "action", "detail"
	}
	return "", ""
}

// hexArg reports whether the kind's Arg is an address (rendered in hex).
func hexArg(k Kind) bool {
	switch k {
	case KindFault, KindPaint, KindUnpaint, KindChunk:
		return true
	}
	return false
}

// Detail renders the event's kind-specific arguments as a human-readable
// "name=value, name=value" string (addresses in hex). It is the CSV
// detail column; the embedded commas are why the exporter quotes per
// RFC 4180.
func (ev Event) Detail() string {
	n1, n2 := argNames(ev.Kind)
	if n1 == "" {
		return ""
	}
	var s string
	if hexArg(ev.Kind) {
		s = fmt.Sprintf("%s=0x%x", n1, ev.Arg)
	} else {
		s = fmt.Sprintf("%s=%d", n1, ev.Arg)
	}
	if n2 != "" {
		s += fmt.Sprintf(", %s=%d", n2, ev.Arg2)
	}
	return s
}

// csvHeader is the column layout of WriteCSV output.
var csvHeader = []string{"cycle", "phase", "kind", "core", "agent", "epoch", "arg", "arg2", "detail"}

// WriteCSV renders the retained events as RFC 4180 CSV (encoding/csv
// quoting), one event per row in emission order:
// cycle,phase,kind,core,agent,epoch,arg,arg2,detail. The detail column
// repeats arg/arg2 with their kind-specific names and hex rendering for
// addresses; it contains commas and is quoted accordingly.
func (t *Tracer) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, ev := range t.Events() {
		rec := []string{
			strconv.FormatUint(ev.Cycle, 10),
			ev.Phase.String(),
			ev.Kind.String(),
			strconv.Itoa(int(ev.Core)),
			bus.Agent(ev.Agent).String(),
			strconv.FormatUint(ev.Epoch, 10),
			strconv.FormatUint(ev.Arg, 10),
			strconv.FormatUint(ev.Arg2, 10),
			ev.Detail(),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
