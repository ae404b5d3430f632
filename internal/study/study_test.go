package study

import (
	"strings"
	"testing"
)

// The whole point of this package: every aggregate must equal the numbers
// printed in the paper.

func TestTable2MatchesPaper(t *testing.T) {
	tab := BuildTable2()
	wantIssues := PerSystem{20, 30, 20, 10}
	wantPosts := PerSystem{20, 7, 7, 20}
	wantAllIssues := PerSystem{32, 48, 31, 13}
	wantAllPosts := PerSystem{60, 33, 39, 25}
	if tab.PerfIssues != wantIssues {
		t.Errorf("PerfIssues = %v, want %v", tab.PerfIssues, wantIssues)
	}
	if tab.PerfPosts != wantPosts {
		t.Errorf("PerfPosts = %v, want %v", tab.PerfPosts, wantPosts)
	}
	if tab.AllIssues != wantAllIssues {
		t.Errorf("AllIssues = %v, want %v", tab.AllIssues, wantAllIssues)
	}
	if tab.AllPosts != wantAllPosts {
		t.Errorf("AllPosts = %v, want %v", tab.AllPosts, wantAllPosts)
	}
	if tab.PerfIssues.Total() != 80 || tab.PerfPosts.Total() != 54 ||
		tab.AllIssues.Total() != 124 || tab.AllPosts.Total() != 157 {
		t.Errorf("totals = %d/%d/%d/%d, want 80/54/124/157",
			tab.PerfIssues.Total(), tab.PerfPosts.Total(),
			tab.AllIssues.Total(), tab.AllPosts.Total())
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	tab := BuildTable3()
	want := map[PatchCategory]PerSystem{
		TuneNewFunctionality: {11, 16, 8, 4},
		ReplaceHardCoded:     {2, 1, 7, 4},
		RefineExisting:       {2, 0, 0, 1},
		FixPoorDefault:       {5, 13, 5, 1},
	}
	for c, w := range want {
		if tab.Categories[c] != w {
			t.Errorf("%v = %v, want %v", c, tab.Categories[c], w)
		}
	}
	// §2.2.1 cross-check: 24 poor defaults, 14 hard-coded of the 80.
	if tab.Categories[FixPoorDefault].Total() != 24 {
		t.Errorf("poor defaults = %d, want 24", tab.Categories[FixPoorDefault].Total())
	}
	if tab.Categories[ReplaceHardCoded].Total() != 14 {
		t.Errorf("hard-coded = %d, want 14", tab.Categories[ReplaceHardCoded].Total())
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	tab := BuildTable4()
	cases := []struct {
		name string
		got  PerSystem
		want PerSystem
	}{
		{"latency", tab.Metrics[Latency], PerSystem{14, 28, 20, 9}},
		{"throughput", tab.Metrics[Throughput], PerSystem{8, 3, 5, 0}},
		{"memory/disk", tab.Metrics[MemoryDisk], PerSystem{9, 15, 8, 7}},
		{"always-on", tab.AlwaysOn, PerSystem{9, 17, 8, 6}},
		{"conditional", tab.Conditional, PerSystem{11, 13, 12, 4}},
		{"direct", tab.Direct, PerSystem{7, 16, 8, 4}},
		{"indirect", tab.Indirect, PerSystem{13, 14, 12, 6}},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	tab := BuildTable5()
	cases := []struct {
		name string
		got  PerSystem
		want PerSystem
	}{
		{"integer", tab.VarTypes[Integer], PerSystem{15, 23, 19, 9}},
		{"float", tab.VarTypes[Float], PerSystem{4, 5, 0, 0}},
		{"non-numerical", tab.VarTypes[NonNumerical], PerSystem{1, 2, 1, 1}},
		{"static system", tab.Factors[StaticSystem], PerSystem{0, 1, 0, 1}},
		{"static workload", tab.Factors[StaticWorkload], PerSystem{4, 0, 0, 2}},
		{"dynamic", tab.Factors[Dynamic], PerSystem{16, 29, 20, 7}},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestPostStatsMatchSection221(t *testing.T) {
	s := BuildPostStats()
	if s != (PostStats{Total: 54, AsksHowToSet: 22, MentionsOOM: 16}) {
		t.Errorf("post stats = %+v, want 54 posts, 22 asking how to set a PerfConf, 16 about OOM", s)
	}
	// ~40% ask how to set; ~30% mention OOM.
	howTo := float64(s.AsksHowToSet) / float64(s.Total)
	oom := float64(s.MentionsOOM) / float64(s.Total)
	if howTo < 0.37 || howTo > 0.43 {
		t.Errorf("how-to-set share = %.2f, want ≈0.40", howTo)
	}
	if oom < 0.27 || oom > 0.33 {
		t.Errorf("OOM share = %.2f, want ≈0.30", oom)
	}
}

// Every issue of the categorized dataset carries the fields a listing of it
// shows: an ID and title, a known system, a known patch category, and at
// least one metric.
func TestEveryIssueHasAtLeastOneMetric(t *testing.T) {
	ids := map[string]bool{}
	for _, i := range Issues() {
		if len(i.Metrics) == 0 {
			t.Errorf("issue %s has no metric", i.ID)
		}
		if i.ID == "" || i.Title == "" {
			t.Errorf("issue missing identity: %+v", i)
		}
		if ids[i.ID] {
			t.Errorf("issue %s listed twice", i.ID)
		}
		ids[i.ID] = true
		if i.System.Abbrev() == "??" || strings.Contains(i.Category.String(), "(") {
			t.Errorf("issue %s: system %q, category %q", i.ID, i.System.Abbrev(), i.Category)
		}
	}
	if len(ids) != 80 || !ids["HBASE-3813"] {
		t.Errorf("dataset lists %d issues (HBASE-3813 present: %v), want the study's 80 with it", len(ids), ids["HBASE-3813"])
	}
}

func TestRealBenchmarkIssuesPresent(t *testing.T) {
	byID := map[string]Issue{}
	for _, i := range Issues() {
		byID[i.ID] = i
	}
	hb3813, ok := byID["HBASE-3813"]
	if !ok {
		t.Fatal("HBASE-3813 missing")
	}
	if !hb3813.Indirect || hb3813.Conditional || !hb3813.Affects(MemoryDisk) {
		t.Errorf("HBASE-3813 attributes wrong: %+v", hb3813)
	}
	hd4995, ok := byID["HDFS-4995"]
	if !ok {
		t.Fatal("HDFS-4995 missing")
	}
	if !hd4995.Conditional || !hd4995.Indirect || hd4995.Category != ReplaceHardCoded {
		t.Errorf("HDFS-4995 attributes wrong: %+v", hd4995)
	}
	mr2820, ok := byID["MAPREDUCE-2820"]
	if !ok {
		t.Fatal("MAPREDUCE-2820 missing")
	}
	if !mr2820.Conditional || mr2820.Indirect || mr2820.VarType != Integer {
		t.Errorf("MAPREDUCE-2820 attributes wrong: %+v", mr2820)
	}
}

func TestMostPerfConfsAffectMultipleMetrics(t *testing.T) {
	// The paper's prose says "61 out of 80" issues affect multiple metrics,
	// but Table 4's own marginals (126 metric labels over 80 issues) admit
	// at most 126−80 = 46 two-metric issues — the prose evidently counts a
	// finer metric taxonomy than the table's three rows. The dataset
	// maximizes multiplicity under the table's marginals: exactly 46, which
	// still supports the qualitative claim (a majority).
	multi := 0
	for _, i := range Issues() {
		if len(i.Metrics) > 1 {
			multi++
		}
	}
	if multi != 46 {
		t.Errorf("multi-metric issues = %d, want 46 (Table 4 label count minus 80)", multi)
	}
	if multi*2 < len(Issues()) {
		t.Errorf("multi-metric issues %d are not a majority of %d", multi, len(Issues()))
	}
}

func TestRendersContainKeyNumbers(t *testing.T) {
	if r := BuildTable2().Render(); !strings.Contains(r, "80") || !strings.Contains(r, "Cassandra") {
		t.Errorf("Table2 render:\n%s", r)
	}
	if r := BuildTable3().Render(); !strings.Contains(r, "Fix a poor default value") {
		t.Errorf("Table3 render:\n%s", r)
	}
	if r := BuildTable4().Render(); !strings.Contains(r, "Indirect Impact") {
		t.Errorf("Table4 render:\n%s", r)
	}
	if r := BuildTable5().Render(); !strings.Contains(r, "Dynamic factors") {
		t.Errorf("Table5 render:\n%s", r)
	}
}

func TestStringersCoverEnums(t *testing.T) {
	for _, sys := range Systems() {
		if sys.String() == "" || sys.Abbrev() == "??" {
			t.Errorf("bad system stringer for %d", int(sys))
		}
	}
	if System(99).Abbrev() != "??" || !strings.Contains(System(99).String(), "99") {
		t.Error("out-of-range system stringer")
	}
	if !strings.Contains(PatchCategory(9).String(), "9") ||
		!strings.Contains(Metric(9).String(), "9") ||
		!strings.Contains(VarType(9).String(), "9") ||
		!strings.Contains(Factor(9).String(), "9") {
		t.Error("out-of-range enum stringers should embed the value")
	}
}

func TestConfVocabularyAndTitles(t *testing.T) {
	for _, sys := range Systems() {
		if name := confNameFor(sys, 0); name == "" {
			t.Errorf("%v: empty configuration name", sys)
		}
		// Wraparound stays deterministic.
		if confNameFor(sys, 3) != confNameFor(sys, 3+len(confVocabulary[sys])) {
			t.Errorf("%v: vocabulary assignment not cyclic", sys)
		}
	}
	title := titleFor("x.y.size", FixPoorDefault, []Metric{MemoryDisk})
	if !strings.Contains(title, "x.y.size") || !strings.Contains(title, "memory/disk") {
		t.Errorf("title = %q", title)
	}
	if got := titleFor("c", RefineExisting, nil); !strings.Contains(got, "performance") {
		t.Errorf("metric-less title = %q", got)
	}
	// Every synthetic record got a plausible, non-placeholder title.
	for _, i := range Issues() {
		if strings.Contains(i.Title, "synthesized") || i.Title == "" {
			t.Errorf("%s: placeholder title %q", i.ID, i.Title)
		}
	}
}
