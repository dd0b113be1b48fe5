package bench

import (
	"flag"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestMain makes every testing.Benchmark call inside measure a single
// iteration: the harness's own tests check shapes, not timings.
func TestMain(m *testing.M) {
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// Tiny sizes keep the harness's own tests fast; the real sweeps run via
// cmd/tpbench and the top-level testing.B benchmarks.
var tiny = Options{Sizes: []int{1000, 2000}, Seed: 3, Repeats: 1}

// tinyFigure measures one panel of the table on ds at the tiny sizes and
// returns its text view.
func tinyFigure(t *testing.T, fig, ds string) Figure {
	t.Helper()
	for _, p := range Panels {
		if p.Fig == fig {
			figs := Figures(p.Measure(ds, tiny))
			if len(figs) != 1 {
				t.Fatalf("panel %s on %s renders as %d figures", fig, ds, len(figs))
			}
			return figs[0]
		}
	}
	t.Fatalf("no panel %q in the table", fig)
	return Figure{}
}

func seriesNames(fig Figure) []string {
	var names []string
	for _, s := range fig.Series {
		names = append(names, s.Name)
	}
	return names
}

func TestFig5Shape(t *testing.T) {
	fig := tinyFigure(t, "5", "webkit")
	if fig.ID != "5a" || fig.Title == "" || !slices.Equal(seriesNames(fig), []string{"NJ", "TA", "AUTO"}) {
		t.Fatalf("unexpected figure: %+v", fig)
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Errorf("series %s has %d points, want 2", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Millis < 0 {
				t.Errorf("negative runtime")
			}
		}
	}
	// Fig. 5 has no partitioned series: AUTO names the sequential
	// pipeline it measured.
	for _, pick := range fig.Series[2].Picks {
		if pick != "NJ" && pick != "TA" {
			t.Errorf("AUTO ran %q, want NJ or TA", pick)
		}
	}
}

func TestFig6HasThreeSeries(t *testing.T) {
	fig := tinyFigure(t, "6", "meteo")
	if fig.ID != "6b" || !slices.Equal(seriesNames(fig), []string{"NJ-WN", "NJ-WUON", "TA"}) {
		t.Fatalf("unexpected figure: %+v", fig)
	}
}

func TestFig7BothDatasets(t *testing.T) {
	for _, ds := range Datasets {
		fig := tinyFigure(t, "7", ds)
		if !slices.Equal(seriesNames(fig), []string{"NJ", "TA", "PNJ", "PTA", "AUTO"}) {
			t.Fatalf("%s: unexpected series %v", ds, seriesNames(fig))
		}
		if picks := fig.Series[4].Picks; len(picks) != 2 || !slices.Contains(seriesNames(fig)[:4], picks[0]) {
			t.Errorf("%s: AUTO picks %v are not series of the panel", ds, picks)
		}
	}
}

func TestExtensions(t *testing.T) {
	if fig := tinyFigure(t, "A1", "webkit"); fig.ID != "A1a" || len(fig.Series) != 2 {
		t.Errorf("anti-join extension: %+v", fig)
	}
	if fig := tinyFigure(t, "A2", "meteo"); fig.ID != "A2b" || len(fig.Series) != 2 {
		t.Errorf("full-outer extension: %+v", fig)
	}
}

// TestTextAndJSONListTheSameSeries: for every panel × dataset the text
// figure and the records behind a -json run carry the same (figure,
// series) set — the two used to be separate definitions that drifted
// (-json dropped -extensions, the text mode dropped PNJ / PTA / AUTO).
func TestTextAndJSONListTheSameSeries(t *testing.T) {
	one := Options{Sizes: []int{600}, Seed: 3}
	panels, err := SelectPanels("all", true)
	if err != nil || len(panels) != len(Panels) {
		t.Fatalf("SelectPanels(all, extensions) = %d panels, %v; want the whole table", len(panels), err)
	}
	for _, p := range panels {
		for _, ds := range Datasets {
			recs := p.Measure(ds, one)
			want := len(p.series)
			if p.auto {
				want++
			}
			if len(recs) != want {
				t.Errorf("%s: %d records, want one per series (%d)", p.ID(ds), len(recs), want)
			}
			inJSON := map[string]bool{}
			for _, rc := range recs {
				inJSON[rc.Figure+"/"+rc.Series] = true
			}
			text := ""
			for _, fig := range Figures(recs) {
				text += Format(fig)
				for _, s := range fig.Series {
					if !inJSON[fig.ID+"/"+s.Name] {
						t.Errorf("text shows %s/%s, which no record carries", fig.ID, s.Name)
					}
					delete(inJSON, fig.ID+"/"+s.Name)
				}
			}
			for k := range inJSON {
				t.Errorf("record %s is missing from the text view", k)
			}
			if !strings.Contains(text, "Fig. "+p.ID(ds)+" — "+p.Title) {
				t.Errorf("%s: text lacks the panel's heading:\n%s", p.ID(ds), text)
			}
		}
	}
}

// TestSelectPanels pins tpbench's -fig / -extensions vocabulary, shared
// by both output modes.
func TestSelectPanels(t *testing.T) {
	figs := func(ps []Panel) (out []string) {
		for _, p := range ps {
			out = append(out, p.Fig)
		}
		return out
	}
	for _, tc := range []struct {
		fig  string
		ext  bool
		want []string
	}{
		{"all", false, []string{"5", "6", "7"}},
		{"all", true, []string{"5", "6", "7", "A1", "A2"}},
		{"7", false, []string{"7"}},
		{"7", true, []string{"7", "A1", "A2"}},
	} {
		got, err := SelectPanels(tc.fig, tc.ext)
		if err != nil || !slices.Equal(figs(got), tc.want) {
			t.Errorf("SelectPanels(%q, %v) = %v, %v; want %v", tc.fig, tc.ext, figs(got), err, tc.want)
		}
	}
	// probagg compared the batched evaluator with the scalar one that no
	// longer exists (BENCH_5.json is its record); extension panels are
	// selected by -extensions, not by name.
	for _, fig := range []string{"probagg", "8", "A1", ""} {
		if got, err := SelectPanels(fig, true); err == nil {
			t.Errorf("SelectPanels(%q) = %v, want an unknown-figure error", fig, figs(got))
		}
	}
}

func TestFormat(t *testing.T) {
	fig := Figure{
		ID: "5a", Title: "WUO", Dataset: "webkit",
		Series: []Series{
			{Name: "NJ", Points: []Point{{N: 50000, Millis: 12.5}, {N: 100000, Millis: 30}}},
			{Name: "TA", Points: []Point{{N: 50000, Millis: 40}, {N: 100000, Millis: 99.5}}},
		},
	}
	got := Format(fig)
	for _, want := range []string{"Fig. 5a", "NJ [ms]", "TA [ms]", "50", "100", "12.5", "99.5"} {
		if !strings.Contains(got, want) {
			t.Errorf("Format output missing %q:\n%s", want, got)
		}
	}
}

func TestSpeedups(t *testing.T) {
	fig := Figure{
		Series: []Series{
			{Name: "NJ", Points: []Point{{N: 1000, Millis: 10}}},
			{Name: "TA", Points: []Point{{N: 1000, Millis: 40}}},
		},
	}
	sp := Speedups(fig, "NJ", "TA")
	if sp[1000] != 4 {
		t.Errorf("speedup = %g, want 4", sp[1000])
	}
}

func TestGeneratePanicsOnUnknownDataset(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	generate("nope", 10, 1)
}

func TestOptionDefaults(t *testing.T) {
	var o Options
	if o.repeats() != 1 || o.seed() != 1 {
		t.Errorf("defaults wrong")
	}
	if got := o.sizes([]int{5}); len(got) != 1 || got[0] != 5 {
		t.Errorf("default sizes wrong")
	}
	o.Sizes = []int{9}
	if got := o.sizes([]int{5}); got[0] != 9 {
		t.Errorf("override sizes wrong")
	}
}

func TestAblationSelectivity(t *testing.T) {
	fig := AblationSelectivity(2000, []int{5, 50}, Options{Seed: 2})
	if fig.ID != "S1" || len(fig.Series) != 2 {
		t.Fatalf("unexpected ablation figure: %+v", fig)
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Errorf("series %s point count wrong", s.Name)
		}
	}
}

func TestAblationGroupSize(t *testing.T) {
	fig := AblationGroupSize(2000, []int{1, 8}, Options{Seed: 2})
	if fig.ID != "S2" || len(fig.Series) != 1 || len(fig.Series[0].Points) != 2 {
		t.Fatalf("unexpected ablation figure: %+v", fig)
	}
}

func TestAblationDefaults(t *testing.T) {
	// Default sweep lists must be applied when none given. Keep n tiny.
	fig := AblationGroupSize(400, nil, Options{Seed: 2})
	if len(fig.Series[0].Points) != 4 {
		t.Errorf("default group sweep wrong: %+v", fig.Series[0].Points)
	}
}
