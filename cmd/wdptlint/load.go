package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// loader parses and type-checks the packages of one module. Packages of the
// module itself are loaded from source; everything else (the standard
// library) is resolved through go/importer's source importer, so the tool
// needs no compiled export data and no external dependencies.
//
// Loading is a three-phase pipeline sized for R10's call-graph half:
//
//  1. parse — the selected packages and their transitive module imports are
//     parsed concurrently (one worker per package, bounded by GOMAXPROCS);
//  2. type-check — packages are checked level by level in dependency order,
//     packages of the same level concurrently; the shared standard-library
//     importer is serialized behind a mutex, module dependencies are
//     guaranteed checked by the level ordering;
//  3. lint — the per-file rules run over each selected package (see Lint),
//     and R10's call-graph half runs once over the full type-resolved
//     closure.
type loader struct {
	fset    *token.FileSet
	root    string // absolute module root directory
	modPath string // module path from go.mod

	std   types.Importer
	stdMu sync.Mutex // serializes the (not concurrency-safe) std importer

	mu     sync.Mutex
	parsed map[string]*lintPkg // import path -> parsed (phase 1) package

	// suppress is the global //lint:ignore index: file (module-relative
	// slash path) -> line -> rules suppressed on that line. It is built
	// during parsing so call-graph findings are suppressible exactly like
	// per-file ones.
	suppress map[string]map[int][]string

	timing LoadTiming
}

// LoadTiming records the loader pipeline's wall-clock profile; run() prints
// it so CI can assert the parallel loader is active and the gate's lint
// step stays bounded.
type LoadTiming struct {
	Packages    int
	Parallelism int
	Parse       time.Duration
	Check       time.Duration
}

func (t LoadTiming) String() string {
	return fmt.Sprintf("loaded %d packages in %v (parse %v + typecheck %v, parallelism %d)",
		t.Packages, (t.Parse + t.Check).Round(time.Millisecond),
		t.Parse.Round(time.Millisecond), t.Check.Round(time.Millisecond), t.Parallelism)
}

// lintPkg is one parsed, type-checked package of the module.
type lintPkg struct {
	path         string // import path ("wdpt/internal/cq")
	rel          string // slash path relative to the module root ("." for the root)
	files        []*ast.File
	testFindings []Finding // the dead directives of the package's test files
	imports      []string  // module-internal imports (import paths)
	pkg          *types.Package
	info         *types.Info
}

func newLoader(dir string) (*loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := moduleName(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &loader{
		fset:     fset,
		root:     root,
		modPath:  modPath,
		std:      importer.ForCompiler(fset, "source", nil),
		parsed:   make(map[string]*lintPkg),
		suppress: make(map[string]map[int][]string),
	}, nil
}

func moduleName(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			name := strings.TrimSpace(rest)
			if name != "" {
				return name, nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// relOf maps a package import path to its module-relative slash path, or ""
// when the package is not part of the module (standard library).
func (l *loader) relOf(path string) string {
	if path == l.modPath {
		return "."
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return rest
	}
	return ""
}

// load resolves the patterns ("./...", "./cmd/wdpteval", ...) to package
// directories and loads each plus its transitive module dependencies,
// returning the selected packages sorted by import path. The full checked
// closure (for R10's call graph) is available via closure().
func (l *loader) load(patterns []string) ([]*lintPkg, error) {
	selected, err := l.resolvePatterns(patterns)
	if err != nil {
		return nil, err
	}
	l.timing.Parallelism = runtime.GOMAXPROCS(0)

	start := time.Now()
	if err := l.parseAll(selected); err != nil {
		return nil, err
	}
	l.timing.Parse = time.Since(start)

	levels, err := l.depLevels()
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if err := l.checkAll(levels); err != nil {
		return nil, err
	}
	l.timing.Check = time.Since(start)
	l.timing.Packages = len(l.parsed)

	pkgs := make([]*lintPkg, 0, len(selected))
	for _, path := range selected {
		pkgs = append(pkgs, l.parsed[path])
	}
	return pkgs, nil
}

// closure returns every loaded module package (the selected ones plus their
// transitive module dependencies), sorted by import path. R10 builds its
// call graph over this set.
func (l *loader) closure() []*lintPkg {
	paths := make([]string, 0, len(l.parsed))
	for path := range l.parsed {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	pkgs := make([]*lintPkg, 0, len(paths))
	for _, path := range paths {
		pkgs = append(pkgs, l.parsed[path])
	}
	return pkgs
}

// resolvePatterns expands the command-line patterns to sorted module import
// paths.
func (l *loader) resolvePatterns(patterns []string) ([]string, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			dirs[base] = true
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base {
				if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
					return filepath.SkipDir
				}
				// A directory with its own go.mod is another module, outside
				// "./..." for the go tool and so for the linter.
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if hasGoFiles(path) {
				dirs[path] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(dirs))
	for dir := range dirs {
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			paths = append(paths, l.modPath)
		} else {
			paths = append(paths, l.modPath+"/"+rel)
		}
	}
	sort.Strings(paths)
	return paths, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// parseAll parses roots and their transitive module imports, fanning each
// wave of newly discovered packages out over worker goroutines.
func (l *loader) parseAll(roots []string) error {
	frontier := append([]string(nil), roots...)
	seen := make(map[string]bool, len(roots))
	for _, p := range roots {
		seen[p] = true
	}
	for len(frontier) > 0 {
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			firstErr error
			next     []string
		)
		workers := l.timing.Parallelism
		if workers > len(frontier) {
			workers = len(frontier)
		}
		queue := make(chan string, len(frontier))
		for _, path := range frontier {
			queue <- path
		}
		close(queue)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for path := range queue {
					p, err := l.parsePackage(path)
					mu.Lock()
					if err != nil {
						if firstErr == nil {
							firstErr = err
						}
					} else {
						for _, imp := range p.imports {
							if !seen[imp] {
								seen[imp] = true
								next = append(next, imp)
							}
						}
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
		sort.Strings(next)
		frontier = next
	}
	return nil
}

// parsePackage parses one module package (non-test files only), records its
// module-internal imports, and indexes its //lint:ignore directives. Its
// test files are only scanned for directives, each of which is dead.
func (l *loader) parsePackage(path string) (*lintPkg, error) {
	rel := l.relOf(path)
	if rel == "" {
		return nil, fmt.Errorf("package %s is outside module %s", path, l.modPath)
	}
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names, testNames []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() || !strings.HasSuffix(name, ".go"):
		case strings.HasSuffix(name, "_test.go"):
			testNames = append(testNames, name)
		default:
			names = append(names, name)
		}
	}
	sort.Strings(names)
	sort.Strings(testNames)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p := &lintPkg{path: path, rel: rel, files: files}
	for _, name := range testNames {
		found, err := l.testFileDirectives(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		p.testFindings = append(p.testFindings, found...)
	}
	for _, f := range files {
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if l.relOf(ipath) != "" {
				p.imports = append(p.imports, ipath)
			}
		}
	}
	sort.Strings(p.imports)
	l.mu.Lock()
	l.parsed[path] = p
	for _, f := range files {
		l.indexSuppressionsLocked(f)
	}
	l.mu.Unlock()
	return p, nil
}

// depLevels topologically orders the parsed packages by module-internal
// imports and groups them into levels: every package's module dependencies
// live in strictly earlier levels, so packages within a level type-check
// independently.
func (l *loader) depLevels() ([][]*lintPkg, error) {
	depth := make(map[string]int, len(l.parsed))
	var visit func(path string, trail []string) (int, error)
	visit = func(path string, trail []string) (int, error) {
		if d, ok := depth[path]; ok {
			if d == -1 {
				return 0, fmt.Errorf("import cycle through %s", strings.Join(append(trail, path), " -> "))
			}
			return d, nil
		}
		depth[path] = -1 // in progress
		max := 0
		for _, imp := range l.parsed[path].imports {
			d, err := visit(imp, append(trail, path))
			if err != nil {
				return 0, err
			}
			if d+1 > max {
				max = d + 1
			}
		}
		depth[path] = max
		return max, nil
	}
	paths := make([]string, 0, len(l.parsed))
	for path := range l.parsed {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	maxDepth := 0
	for _, path := range paths {
		d, err := visit(path, nil)
		if err != nil {
			return nil, err
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	levels := make([][]*lintPkg, maxDepth+1)
	for _, path := range paths {
		d := depth[path]
		levels[d] = append(levels[d], l.parsed[path])
	}
	return levels, nil
}

// checkAll type-checks the parsed packages level by level, packages within
// a level concurrently.
func (l *loader) checkAll(levels [][]*lintPkg) error {
	for _, level := range levels {
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			firstErr error
		)
		for _, p := range level {
			wg.Add(1)
			go func(p *lintPkg) {
				defer wg.Done()
				if err := l.checkPackage(p); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}(p)
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
	}
	return nil
}

func (l *loader) checkPackage(p *lintPkg) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(p.path, l.fset, p.files, info)
	if len(typeErrs) > 0 {
		return fmt.Errorf("type-checking %s: %v", p.path, typeErrs[0])
	}
	p.pkg = pkg
	p.info = info
	return nil
}

// loaderImporter adapts the loader to types.Importer: module packages come
// from the checked-package table (the level ordering guarantees they are
// ready), everything else goes to the mutex-serialized standard-library
// importer.
type loaderImporter loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*loader)(li)
	if l.relOf(path) != "" {
		l.mu.Lock()
		p := l.parsed[path]
		l.mu.Unlock()
		if p == nil || p.pkg == nil {
			return nil, fmt.Errorf("module package %s not checked before its importer (dependency-order bug)", path)
		}
		return p.pkg, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}
