package paydemand_test

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBenchRecordsNameLiveBenchmarks keeps the BENCH_*.json records
// honest: every BenchmarkXxx a record's benchmark or command field names
// must be declared as func BenchmarkXxx( in some _test.go file of the
// tree, so a record cannot outlive the benchmark that reproduces it.
func TestBenchRecordsNameLiveBenchmarks(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	records, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(records) == 0 {
		t.Fatalf("no BENCH_*.json records found (err %v)", err)
	}
	named := regexp.MustCompile(`Benchmark\w+`)
	for _, rec := range records {
		data, err := os.ReadFile(rec)
		if err != nil {
			t.Fatal(err)
		}
		var r struct{ Benchmark, Command string }
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("%s: %v", rec, err)
		}
		for _, field := range []string{r.Benchmark, r.Command} {
			for _, name := range named.FindAllString(field, -1) {
				if !defined[name] {
					t.Errorf("%s names %s, which no _test.go file declares", rec, name)
				}
			}
		}
	}
}
