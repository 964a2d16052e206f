package optcensus

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignInventoryNamesEveryDirectory holds DESIGN.md's "System
// inventory" to the tree: its tables name exactly the directories under
// internal/, cmd/ and examples/, no more and no fewer.
func TestDesignInventoryNamesEveryDirectory(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## System inventory\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## System inventory" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	row := regexp.MustCompile("(?m)^\\| `((?:internal|cmd|examples)/[^`/]+)` \\|")
	listed := map[string]bool{}
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		listed[m[1]] = true
	}

	for _, parent := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(filepath.Join("../..", parent))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			dir := parent + "/" + e.Name()
			if !listed[dir] {
				t.Errorf("DESIGN.md's inventory omits %s", dir)
			}
			delete(listed, dir)
		}
	}
	for dir := range listed {
		t.Errorf("DESIGN.md's inventory names %s, which does not exist", dir)
	}
}
