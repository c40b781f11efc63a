package videopipe_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"videopipe/internal/script"
)

// TestCostGoldenBounds pins pipecost's exact output — every handler's
// Bounded flag, Steps and Reasons, and every PV012/PV013 diagnostic — for
// every shipped module (collectSoundnessModules) and every file of the
// cost corpus (internal/script/testdata/cost). The soundness tests only
// check static >= measured; this one catches a bound that moves in either
// direction. There is no update flag: a mismatch prints the got text, and a
// moved line is a change to the cost model.
func TestCostGoldenBounds(t *testing.T) {
	modules := collectSoundnessModules(t)
	corpus, err := filepath.Glob(filepath.Join("internal", "script", "testdata", "cost", "*.js"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		modules[filepath.ToSlash(path)] = string(data)
	}
	wheres := make([]string, 0, len(modules))
	for where := range modules {
		wheres = append(wheres, where)
	}
	sort.Strings(wheres)

	var got strings.Builder
	for _, where := range wheres {
		src := modules[where]
		fmt.Fprintf(&got, "module %s\n", where)
		rep := script.Analyze(src, script.Options{})
		for _, h := range rep.Cost.Handlers {
			if h.Bounded {
				fmt.Fprintf(&got, "  %s bounded %d\n", h.Name, h.Steps)
			} else {
				fmt.Fprintf(&got, "  %s unbounded: %s\n", h.Name, strings.Join(h.Reasons, "; "))
			}
		}
		for _, d := range rep.Diagnostics {
			if d.Code == "PV012" || d.Code == "PV013" {
				fmt.Fprintf(&got, "  %s\n", d)
			}
		}
	}

	want, err := os.ReadFile("testdata/pipecost.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("pipecost output differs from testdata/pipecost.golden; got:\n%s", got.String())
	}
}
