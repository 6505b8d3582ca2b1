// Package reach holds the reachability and settings check: a test that
// fails when a function or method no program reaches, or a setting no
// program sets, is not on the checked-in allow-list ci/unreached.txt, and
// when a line of that list names something that is now reached, now set,
// or gone. So the list can only shrink: nothing lands that no program
// uses without a line that says why.
//
// `make reach` prints both lists with line totals per package.
package reach

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// root is the repository: the tca module, with the benchmark module in it.
var root = filepath.Join("..", "..")

var (
	treeOnce sync.Once
	treeRes  *result
	treeErr  error
)

// tree scans both modules of the repository once per test binary.
func tree(t *testing.T) *result {
	t.Helper()
	treeOnce.Do(func() {
		abs, err := filepath.Abs(root)
		if err != nil {
			treeErr = err
			return
		}
		treeRes, treeErr = scan(module{"tca", abs}, module{"tca/bench", filepath.Join(abs, "bench")})
	})
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return treeRes
}

// reasonRE is the one reason a line of ci/unreached.txt may give: the
// ROADMAP item that will give the entry a caller, the floor test that
// deleting it would retire, or the test that can keep its assertion only
// through the setting.
var reasonRE = regexp.MustCompile(`^(item (7b|8|17|26|27)|floor: ((Test|Fuzz)\w+)|test seam: ((Test|Fuzz)\w+))$`)

// allowLine is one line of ci/unreached.txt.
type allowLine struct {
	name, reason string
	line         int
}

// readAllowList parses ci/unreached.txt: "#" comment lines, then one
// qualified name and its reason per line, sorted by name.
func readAllowList(t *testing.T) []allowLine {
	t.Helper()
	f, err := os.Open(filepath.Join(root, "ci", "unreached.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []allowLine
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		out = append(out, allowLine{name: name, reason: reason, line: n})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// testFuncs returns the names of the Test and Fuzz functions declared in
// the repository's test files.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if base := d.Name(); path != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
				(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
				names[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestUnreachedAllowList holds the tree to ci/unreached.txt in both
// directions.
func TestUnreachedAllowList(t *testing.T) {
	res := tree(t)
	list := readAllowList(t)
	tests := testFuncs(t)

	listed := make(map[string]allowLine, len(list))
	for i, l := range list {
		if i > 0 && list[i-1].name >= l.name {
			t.Errorf("ci/unreached.txt:%d: %s is out of order or repeated (the list is sorted by name)", l.line, l.name)
		}
		m := reasonRE.FindStringSubmatch(l.reason)
		switch {
		case m == nil:
			t.Errorf("ci/unreached.txt:%d: %s: reason %q is none of `item N` (7b, 8, 17, 26, 27), `floor: TestX`, `test seam: TestX`", l.line, l.name, l.reason)
		case m[3] != "" && !tests[m[3]]:
			t.Errorf("ci/unreached.txt:%d: %s: no test named %s", l.line, l.name, m[3])
		case m[5] != "" && !tests[m[5]]:
			t.Errorf("ci/unreached.txt:%d: %s: no test named %s", l.line, l.name, m[5])
		}
		listed[l.name] = l
	}

	found := make(map[string]bool)
	for _, kind := range []struct {
		what    string
		entries []entry
	}{{"unreached", res.unreached}, {"unset", res.unset}} {
		for _, e := range kind.entries {
			found[e.name] = true
			if _, ok := listed[e.name]; !ok {
				t.Errorf("%s (%s:%d) is %s and not in ci/unreached.txt: give it a program that uses it, delete it, or add a line with its reason",
					e.name, e.pos.Filename, e.pos.Line, kind.what)
			}
		}
	}
	for _, l := range list {
		if !found[l.name] {
			t.Errorf("ci/unreached.txt:%d: %s is reached, set or gone now: remove its line", l.line, l.name)
		}
	}
}

// report renders both lists with line totals per package (a setting
// counts one line).
func report(res *result) string {
	var b strings.Builder
	for _, kind := range []struct {
		what    string
		entries []entry
	}{{"unreached functions", res.unreached}, {"unset settings", res.unset}} {
		total := 0
		perPkg := make(map[string]int)
		for _, e := range kind.entries {
			total += e.lines
			perPkg[e.pkg] += e.lines
		}
		fmt.Fprintf(&b, "%s: %d (%d lines)\n", kind.what, len(kind.entries), total)
		pkgs := make([]string, 0, len(perPkg))
		for p := range perPkg {
			pkgs = append(pkgs, p)
		}
		sort.Strings(pkgs)
		for _, p := range pkgs {
			fmt.Fprintf(&b, "  %5d  %s\n", perPkg[p], p)
		}
		for _, e := range kind.entries {
			rel, err := filepath.Rel(mustAbs(root), e.pos.Filename)
			if err != nil {
				rel = e.pos.Filename
			}
			fmt.Fprintf(&b, "  %5d  %s  %s:%d\n", e.lines, e.name, rel, e.pos.Line)
		}
	}
	return b.String()
}

func mustAbs(p string) string {
	abs, err := filepath.Abs(p)
	if err != nil {
		return p
	}
	return abs
}

// TestReachReport prints both lists under -v (`make reach`).
func TestReachReport(t *testing.T) {
	res := tree(t)
	if testing.Verbose() {
		fmt.Print(report(res))
	}
}
