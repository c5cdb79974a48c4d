package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Terminal plotting for the paper's figure styles: cumulative distribution
// functions (Figure 7) and boxplot strips (Figures 8 and 9). Pure text,
// suitable for piping; deterministic given the same samples.

// CDFPlot renders named sample sets as an ASCII CDF: x is the value (log
// scale when the data spans decades), y the cumulative fraction. Each
// series draws with its own rune.
type CDFPlot struct {
	Title  string
	XLabel string
	Width  int // plot columns (default 72)
	Height int // plot rows (default 18)

	names   []string
	series  []*Samples
	symbols []rune
}

// seriesRunes cycle across added series.
var seriesRunes = []rune{'*', 'o', '+', 'x', '#', '@'}

// Add appends a named series.
func (p *CDFPlot) Add(name string, s *Samples) {
	p.names = append(p.names, name)
	p.series = append(p.series, s)
	p.symbols = append(p.symbols, seriesRunes[len(p.symbols)%len(seriesRunes)])
}

// Render draws the plot.
func (p *CDFPlot) Render() string {
	w, h := p.Width, p.Height
	if w <= 0 {
		w = 72
	}
	if h <= 0 {
		h = 18
	}
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for _, s := range p.series {
		if s.N() == 0 {
			continue
		}
		lo = math.Min(lo, s.Min())
		hi = math.Max(hi, s.Max())
	}
	if math.IsInf(lo, 1) || hi <= lo {
		return p.Title + ": no data\n"
	}
	logScale := lo > 0 && hi/lo > 20
	xpos := func(v float64) int {
		var f float64
		if logScale {
			f = (math.Log(v) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
		} else {
			f = (v - lo) / (hi - lo)
		}
		x := int(f * float64(w-1))
		if x < 0 {
			x = 0
		}
		if x > w-1 {
			x = w - 1
		}
		return x
	}

	grid := make([][]rune, h)
	for y := range grid {
		grid[y] = []rune(strings.Repeat(" ", w))
	}
	for si, s := range p.series {
		if s.N() == 0 {
			continue
		}
		for _, pt := range s.CDF(4 * w) {
			y := int(pt.Fraction * float64(h-1))
			if y > h-1 {
				y = h - 1
			}
			grid[h-1-y][xpos(pt.X)] = p.symbols[si]
		}
	}

	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	for y := 0; y < h; y++ {
		frac := float64(h-1-y) / float64(h-1)
		fmt.Fprintf(&b, "%5.2f |%s|\n", frac, string(grid[y]))
	}
	fmt.Fprintf(&b, "      +%s+\n", strings.Repeat("-", w))
	scale := "linear"
	if logScale {
		scale = "log"
	}
	fmt.Fprintf(&b, "      %-*s%s\n", w-len(fmt.Sprint(hi))+1, fmt.Sprintf("%.4g", lo), fmt.Sprintf("%.4g", hi))
	if p.XLabel != "" {
		fmt.Fprintf(&b, "      x: %s (%s scale)\n", p.XLabel, scale)
	}
	for i, n := range p.names {
		fmt.Fprintf(&b, "      %c %s\n", p.symbols[i], n)
	}
	return b.String()
}

// BoxStrip renders labelled boxplots on a shared horizontal axis, one row
// per entry, in the style of Figure 9.
type BoxStrip struct {
	Title  string
	XLabel string
	Width  int

	labels []string
	boxes  []Box
}

// Add appends a labelled box.
func (p *BoxStrip) Add(label string, b Box) {
	p.labels = append(p.labels, label)
	p.boxes = append(p.boxes, b)
}

// Render draws the strip.
func (p *BoxStrip) Render() string {
	w := p.Width
	if w <= 0 {
		w = 60
	}
	if len(p.boxes) == 0 {
		return p.Title + ": no data\n"
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, b := range p.boxes {
		lo = math.Min(lo, b.Min)
		hi = math.Max(hi, b.Max)
	}
	if hi <= lo {
		hi = lo + 1
	}
	logScale := lo > 0 && hi/lo > 20
	xpos := func(v float64) int {
		var f float64
		if logScale {
			f = (math.Log(v) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
		} else {
			f = (v - lo) / (hi - lo)
		}
		x := int(f * float64(w-1))
		if x < 0 {
			x = 0
		}
		if x > w-1 {
			x = w - 1
		}
		return x
	}
	labelW := 0
	for _, l := range p.labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	for i, box := range p.boxes {
		row := []rune(strings.Repeat(" ", w))
		l, q1, med, q3, r := xpos(box.Min), xpos(box.P25), xpos(box.Median), xpos(box.P75), xpos(box.Max)
		for x := l; x <= r; x++ {
			row[x] = '-'
		}
		for x := q1; x <= q3; x++ {
			row[x] = '='
		}
		row[l], row[r] = '|', '|'
		row[med] = 'M'
		fmt.Fprintf(&b, "  %-*s |%s|\n", labelW, p.labels[i], string(row))
	}
	scale := "linear"
	if logScale {
		scale = "log"
	}
	fmt.Fprintf(&b, "  %-*s +%s+\n", labelW, "", strings.Repeat("-", w))
	fmt.Fprintf(&b, "  %-*s %.4g .. %.4g", labelW, "", lo, hi)
	if p.XLabel != "" {
		fmt.Fprintf(&b, "  (%s, %s scale)", p.XLabel, scale)
	}
	b.WriteString("\n")
	return b.String()
}
