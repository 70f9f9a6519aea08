package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pts/internal/stats"
	"pts/internal/viz"
)

// RenderASCII renders a figure as a value table followed by a crude
// multi-series line plot, for terminals and plain-text reports.
func RenderASCII(f *Figure) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", f.ID, f.Title)
	sb.WriteString(renderTable(f))
	sb.WriteString(renderPlot(f, 64, 16))
	for _, n := range f.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// renderTable prints one row per distinct x with one column per series.
// Series with disjoint x sets (traces) fall back to per-series blocks.
func renderTable(f *Figure) string {
	if len(f.Series) == 0 {
		return "(no data)\n"
	}
	if !alignedXs(f.Series) {
		return renderSummaryTable(f)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "%14s", s.Name)
	}
	sb.WriteByte('\n')
	for i, p := range f.Series[0].Points {
		fmt.Fprintf(&sb, "%-12.4g", p.X)
		for _, s := range f.Series {
			fmt.Fprintf(&sb, "%14.4f", s.Points[i].Y)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// renderSummaryTable summarizes trace-like series: start, end, best, and
// end time for each.
func renderSummaryTable(f *Figure) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s%12s%12s%12s%12s\n", "series", "start", "final", "best", "endTime")
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			continue
		}
		ys := s.Ys()
		fmt.Fprintf(&sb, "%-24s%12.4f%12.4f%12.4f%12.4f\n",
			s.Name, ys[0], ys[len(ys)-1], stats.Min(ys), s.Points[len(s.Points)-1].X)
	}
	return sb.String()
}

// alignedXs reports whether every series shares the first series' x
// values.
func alignedXs(series []stats.Series) bool {
	for _, s := range series[1:] {
		if len(s.Points) != len(series[0].Points) {
			return false
		}
		for i := range s.Points {
			if s.Points[i].X != series[0].Points[i].X {
				return false
			}
		}
	}
	return true
}

// plotMarks are per-series glyphs.
var plotMarks = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&', '~', '^', '=', '$'}

// renderPlot draws all series into one w x h character grid with linear
// axes.
func renderPlot(f *Figure, w, h int) string {
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for _, p := range s.Points {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	if math.IsInf(minX, 1) {
		return ""
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range f.Series {
		mark := plotMarks[si%len(plotMarks)]
		for _, p := range s.Points {
			c := int(math.Round((p.X - minX) / (maxX - minX) * float64(w-1)))
			r := int(math.Round((maxY - p.Y) / (maxY - minY) * float64(h-1)))
			if r >= 0 && r < h && c >= 0 && c < w {
				grid[r][c] = mark
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "\n%10.4g ┌%s┐\n", maxY, strings.Repeat("─", w))
	for r := 0; r < h; r++ {
		label := "          "
		if r == h-1 {
			label = fmt.Sprintf("%10.4g", minY)
		}
		fmt.Fprintf(&sb, "%s │%s│\n", label, grid[r])
	}
	fmt.Fprintf(&sb, "%10s └%s┘\n", "", strings.Repeat("─", w))
	fmt.Fprintf(&sb, "%10s  %-10.4g%s%10.4g\n", "", minX,
		strings.Repeat(" ", max(1, w-20)), maxX)
	var legend []string
	for si, s := range f.Series {
		legend = append(legend, fmt.Sprintf("%c %s", plotMarks[si%len(plotMarks)], s.Name))
	}
	sort.Strings(legend)
	fmt.Fprintf(&sb, "legend: %s\n", strings.Join(legend, "   "))
	return sb.String()
}

// WriteSVG renders the figure as a vector line chart at dir/<id>.svg
// and returns the path.
func WriteSVG(f *Figure, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, f.ID+".svg")
	file, err := os.Create(path)
	if err != nil {
		return "", err
	}
	chart := viz.Chart{
		Title:  fmt.Sprintf("%s: %s", f.ID, f.Title),
		XLabel: f.XLabel,
		YLabel: f.YLabel,
		Series: f.Series,
	}
	if err := viz.WriteChartSVG(file, chart); err != nil {
		file.Close()
		return "", err
	}
	return path, file.Close()
}

// WriteCSV writes the figure in long form (series,x,y) to
// dir/<id>.csv and returns the path.
func WriteCSV(f *Figure, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, f.ID+".csv")
	var sb strings.Builder
	sb.WriteString("series,x,y\n")
	for _, s := range f.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&sb, "%s,%g,%g\n", s.Name, p.X, p.Y)
		}
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
