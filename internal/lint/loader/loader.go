// Package loader loads and type-checks Go packages for the khazlint
// analyzers without depending on golang.org/x/tools/go/packages.
//
// Two entry points:
//
//   - Load, khazlint's, resolves package patterns with `go list -export -deps -json`,
//     parses each matched package from source, and type-checks it against
//     the compiler export data of its dependencies (served out of the go
//     build cache, so no network and no extra builds).
//   - LoadSource, the analyzer tests', type-checks a single package
//     rooted in a testdata/src tree (the analysistest layout), resolving imports against the same
//     tree first and falling back to toolchain export data for the
//     standard library.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the package's import path.
	PkgPath string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files is the parsed syntax, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info records type and object resolution for Files.
	Info *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Standard   bool
	ImportMap  map[string]string
	Module     *struct {
		Path      string
		GoVersion string
	}
	Error *struct {
		Err string
	}
}

// Load loads the packages matching patterns in the module rooted at (or
// containing) dir. Test files are deliberately excluded: khazlint checks
// production code, where e.g. context.Background() is a smell rather than
// an idiom.
func Load(dir string, patterns []string) ([]*Package, error) {
	pkgs, err := goList(dir, append([]string{"-export", "-deps"}, patterns...))
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	importMap := make(map[string]string)
	goVersion := ""
	var targets []*listPkg
	for _, p := range pkgs {
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("loader: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			importMap[from] = to
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
			if goVersion == "" && p.Module != nil && p.Module.GoVersion != "" {
				goVersion = "go" + p.Module.GoVersion
			}
		}
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports, importMap)
	var out []*Package
	for _, p := range targets {
		if len(p.GoFiles) == 0 {
			continue
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("loader: %s: cgo packages are not supported", p.ImportPath)
		}
		pkg, err := typeCheck(fset, p.ImportPath, p.Dir, p.GoFiles, imp, goVersion)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// LoadSource type-checks the package at importPath found under one of the
// srcRoots (analysistest layout: root/<importPath>/*.go). Imports are
// resolved under srcRoots first — recursively type-checked from source —
// then against toolchain export data.
func LoadSource(importPath string, srcRoots []string) (*Package, error) {
	pkgs, err := LoadSourcePackages([]string{importPath}, srcRoots)
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		if p.PkgPath == importPath {
			return p, nil
		}
	}
	return nil, fmt.Errorf("loader: %s not loaded", importPath)
}

// LoadSourcePackages type-checks the packages at importPaths — plus every
// dependency found under the source roots — as one program sharing a
// FileSet, for whole-program analyzer tests. The result includes the
// source-tree dependencies and is sorted by import path.
func LoadSourcePackages(importPaths []string, srcRoots []string) ([]*Package, error) {
	sl := &srcLoader{
		fset:    token.NewFileSet(),
		roots:   srcRoots,
		sources: make(map[string]*Package),
	}
	// Pre-scan the source tree for external imports so one `go list` call
	// can resolve all of them.
	external := make(map[string]bool)
	seen := make(map[string]bool)
	for _, ip := range importPaths {
		if err := sl.scanExternal(ip, external, seen); err != nil {
			return nil, err
		}
	}
	exports := make(map[string]string)
	importMap := make(map[string]string)
	if len(external) > 0 {
		paths := make([]string, 0, len(external))
		for p := range external {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		pkgs, err := goList("", append([]string{"-export", "-deps"}, paths...))
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Error != nil {
				return nil, fmt.Errorf("loader: %s: %s", p.ImportPath, p.Error.Err)
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			for from, to := range p.ImportMap {
				importMap[from] = to
			}
		}
	}
	sl.exports = newExportImporter(sl.fset, exports, importMap)
	for _, ip := range importPaths {
		if _, err := sl.load(ip); err != nil {
			return nil, err
		}
	}
	out := make([]*Package, 0, len(sl.sources))
	for _, p := range sl.sources {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// srcLoader loads packages from testdata source roots.
type srcLoader struct {
	fset    *token.FileSet
	roots   []string
	sources map[string]*Package
	exports *exportImporter
	loading []string // cycle detection
}

// dirFor resolves an import path under the source roots.
func (sl *srcLoader) dirFor(importPath string) (string, bool) {
	for _, root := range sl.roots {
		dir := filepath.Join(root, filepath.FromSlash(importPath))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
	}
	return "", false
}

func sourceFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, name)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	return files, nil
}

// scanExternal collects imports not resolvable under the source roots.
func (sl *srcLoader) scanExternal(importPath string, external, seen map[string]bool) error {
	if seen[importPath] {
		return nil
	}
	seen[importPath] = true
	dir, ok := sl.dirFor(importPath)
	if !ok {
		external[importPath] = true
		return nil
	}
	files, err := sourceFiles(dir)
	if err != nil {
		return err
	}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if err := sl.scanExternal(path, external, seen); err != nil {
				return err
			}
		}
	}
	return nil
}

// Import implements types.Importer over the two-level resolution.
func (sl *srcLoader) Import(path string) (*types.Package, error) {
	if _, ok := sl.dirFor(path); ok {
		pkg, err := sl.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return sl.exports.Import(path)
}

func (sl *srcLoader) load(importPath string) (*Package, error) {
	if pkg, ok := sl.sources[importPath]; ok {
		return pkg, nil
	}
	for _, p := range sl.loading {
		if p == importPath {
			return nil, fmt.Errorf("loader: import cycle through %s", importPath)
		}
	}
	sl.loading = append(sl.loading, importPath)
	defer func() { sl.loading = sl.loading[:len(sl.loading)-1] }()

	dir, ok := sl.dirFor(importPath)
	if !ok {
		return nil, fmt.Errorf("loader: %s not found under source roots", importPath)
	}
	files, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := typeCheck(sl.fset, importPath, dir, files, sl, "")
	if err != nil {
		return nil, err
	}
	sl.sources[importPath] = pkg
	return pkg, nil
}

// typeCheck parses the named files in dir and type-checks them as one
// package using imp for imports.
func typeCheck(fset *token.FileSet, importPath, dir string, fileNames []string, imp types.Importer, goVersion string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	cfg := &types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		Error:     func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := cfg.Check(importPath, fset, files, info)
	if len(typeErrs) > 0 {
		var b strings.Builder
		for i, e := range typeErrs {
			if i > 0 {
				b.WriteString("\n\t")
			}
			b.WriteString(e.Error())
		}
		return nil, fmt.Errorf("loader: type errors in %s:\n\t%s", importPath, b.String())
	}
	return &Package{PkgPath: importPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// exportImporter imports packages from compiler export data files.
type exportImporter struct {
	gc        types.Importer
	exports   map[string]string
	importMap map[string]string
}

func newExportImporter(fset *token.FileSet, exports, importMap map[string]string) *exportImporter {
	ei := &exportImporter{exports: exports, importMap: importMap}
	ei.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := ei.exports[path]
		if !ok {
			return nil, fmt.Errorf("loader: no export data for %q", path)
		}
		return os.Open(file)
	})
	return ei
}

// Import implements types.Importer.
func (ei *exportImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := ei.importMap[path]; ok {
		path = mapped
	}
	return ei.gc.Import(path)
}

// goList runs `go list -json` with the given extra arguments.
func goList(dir string, args []string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("loader: go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var pkgs []*listPkg
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("loader: decode go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
