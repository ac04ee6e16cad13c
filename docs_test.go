package specrecon_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"specrecon/internal/cli/clitest"
)

// livingDocs are the documents that tell a reader what to run; they may
// only name make targets, cmd/ binaries, tests and flags that exist. A
// section that records what an earlier PR ran (and so names what has
// since been retired) is fenced off in the document itself:
//
//	<!-- history: names tools and targets as they were -->
//	...
//	<!-- /history -->
var livingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	historyRE  = regexp.MustCompile(`(?s)<!-- history:.*?-->.*?<!-- /history -->`)
	codeSpanRE = regexp.MustCompile("`[^`]+`")
	makeRefRE  = regexp.MustCompile(`\bmake\s+([a-z][a-z0-9-]*)`)
	cmdRefRE   = regexp.MustCompile(`\bcmd/([a-z][a-z0-9_]*)`)
	targetRE   = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	// A cited test; a trailing * cites every test with that prefix.
	testRefRE  = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz|Example)[A-Z][A-Za-z0-9_]*)(\*?)`)
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*)\(`)
	flagRefRE  = regexp.MustCompile(`(?:^|[\s/(\x60])-([a-z][a-z0-9-]*)`)
	// README's Layout stanza: a cmd/<name> entry and its indented lines.
	layoutRE = regexp.MustCompile(`(?m)^cmd/([a-z]+) .*\n(?:[ \t]+.*\n)*`)
	// A row of README's "| flag | command | effect |" tables.
	flagRowRE = regexp.MustCompile("(?m)^\\| (`-[^|]*) \\| (`[^|]*) \\|")
)

// docCode returns what a markdown document sets as code: the lines of
// its fenced blocks and its inline spans (which may wrap a line).
// "make" is an English verb everywhere else.
func docCode(text string) string {
	var code, prose strings.Builder
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			code.WriteString(line + "\n")
		default:
			prose.WriteString(line + "\n")
		}
	}
	for _, span := range codeSpanRE.FindAllString(prose.String(), -1) {
		code.WriteString(span + "\n")
	}
	return code.String()
}

// testFuncs returns every Test, Benchmark, Fuzz and Example function the
// repository's test files declare.
func testFuncs(t *testing.T) []string {
	var names []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, the benchmark's build directory
		}
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// checkFlags fails on a -flag in text that cmd/<cmd>/testdata/flags.golden
// (what the binary's -h lists, held by its TestFlagNames) does not have.
func checkFlags(t *testing.T, where, cmd, text string) {
	flags := flagRefRE.FindAllStringSubmatch(text, -1)
	if len(flags) == 0 {
		return
	}
	golden, err := os.ReadFile(filepath.Join("cmd", cmd, "testdata", "flags.golden"))
	if err != nil {
		t.Errorf("%s attributes flags to cmd/%s: %v", where, cmd, err)
		return
	}
	for _, m := range flags {
		if !strings.Contains("\n"+string(golden), "\n"+m[1]+"\n") {
			t.Errorf("%s names -%s, which cmd/%s does not have", where, m[1], cmd)
		}
	}
}

// TestDocsNameOnlyWhatExists fails on a `make <target>` the Makefile no
// longer has, on a cmd/<name> that is no longer a directory and on a
// cited test no test file declares, in any living document outside its
// history fences; on a flag README's Layout stanza or one of its flag
// tables gives a binary that the binary does not have; and on a
// directory DESIGN.md's inventory tree has and the repository does not,
// or the other way round.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	checkInventoryTree(t)
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range targetRE.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	if !targets["check"] || !targets["perf-gate"] {
		t.Fatalf("Makefile targets not recognised: %v", targets)
	}
	tests := testFuncs(t)
	declared := func(name string, prefix bool) bool {
		for _, fn := range tests {
			if fn == name || prefix && strings.HasPrefix(fn, name) {
				return true
			}
		}
		return false
	}
	for _, doc := range livingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Count(string(data), "<!-- history:") != strings.Count(string(data), "<!-- /history -->") {
			t.Errorf("%s: unbalanced history fences", doc)
		}
		text := historyRE.ReplaceAllString(string(data), "")
		for _, m := range makeRefRE.FindAllStringSubmatch(docCode(text), -1) {
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile does not have", doc, m[1])
			}
		}
		for _, m := range cmdRefRE.FindAllStringSubmatch(text, -1) {
			if st, err := os.Stat("cmd/" + m[1]); err != nil || !st.IsDir() {
				t.Errorf("%s names cmd/%s, which does not exist", doc, m[1])
			}
		}
		for _, m := range testRefRE.FindAllStringSubmatch(text, -1) {
			if !declared(m[1], m[2] == "*") {
				t.Errorf("%s cites %s%s, which no test file declares", doc, m[1], m[2])
			}
		}
		if doc != "README.md" {
			continue
		}
		layout := text[strings.Index(text, "\n## Layout\n")+1:]
		for _, m := range layoutRE.FindAllStringSubmatch(layout, -1) {
			checkFlags(t, "README.md Layout", m[1], m[0])
		}
		// A cell spells a literal | as \|.
		for _, row := range flagRowRE.FindAllStringSubmatch(strings.ReplaceAll(text, `\|`, "/"), -1) {
			for _, cmd := range codeSpanRE.FindAllString(row[2], -1) {
				checkFlags(t, "README.md flag table", strings.Trim(cmd, "`"), row[1])
			}
		}
	}
}

// treeEntryRE is one entry of DESIGN.md's inventory tree: the connector,
// whose column gives the depth, and the name.
var treeEntryRE = regexp.MustCompile(`^([│ ]*)[├└]── (\S+)`)

// checkInventoryTree holds DESIGN.md §3's tree to the repository both
// ways: every entry it spells as a directory is one, and every directory
// that holds a Go package is an entry.
func checkInventoryTree(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "\n## 3. System inventory")
	_, tree, _ := strings.Cut(section, "```\n")
	tree, _, _ = strings.Cut(tree, "```")
	listed := map[string]bool{}
	var stack []string
	for _, line := range strings.Split(tree, "\n") {
		m := treeEntryRE.FindStringSubmatch(line)
		if m == nil || !strings.HasSuffix(m[2], "/") {
			continue
		}
		depth := len([]rune(m[1])) / 4
		if depth > len(stack) {
			t.Fatalf("inventory tree: %q is indented past its parent", line)
		}
		stack = append(stack[:depth], strings.TrimSuffix(m[2], "/"))
		dir := filepath.Join(stack...)
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("DESIGN.md §3 lists %s/, which is not a directory", dir)
		}
		listed[dir] = true
	}
	if len(listed) < 10 {
		t.Fatalf("inventory tree not recognised: %v", listed)
	}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if dir := filepath.Dir(path); err == nil && dir != "." && strings.HasSuffix(path, ".go") && !listed[dir] {
			listed[dir] = true
			t.Errorf("DESIGN.md §3 does not list %s/, which holds a Go package", dir)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeIsTheGolden holds the package's exported names — what
// `go doc -short .` lists — to testdata/facade.golden. The facade is what
// the programs under examples/ use; a name joins it with the example that
// needs it, and the golden (`go test . -run FacadeIsTheGolden -update`)
// is the record that it did.
func TestFacadeIsTheGolden(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip(err)
	}
	got, err := exec.Command(goTool, "doc", "-short", ".").Output()
	if err != nil {
		t.Fatal(err)
	}
	clitest.Golden(t, "facade", string(got))
	if n := strings.Count(string(got), "\n"); n > 50 {
		t.Errorf("the facade exports %d names, over its bound of 50", n)
	}
}
