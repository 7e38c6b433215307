package ir

// CloneStmt deep-copies a statement tree. Passes mutate statements in
// place, so every statement (and every statement slice) is copied;
// expressions and symbols are shared, because passes rebuild rather
// than mutate expressions and never modify symbols they did not create.
func CloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *Assign:
		return &Assign{Dst: s.Dst, Src: s.Src}
	case *Store:
		return &Store{Arr: s.Arr, Index: s.Index, Val: s.Val}
	case *Alloc:
		return &Alloc{Arr: s.Arr, Rows: s.Rows, Cols: s.Cols}
	case *For:
		return &For{Var: s.Var, Lo: s.Lo, Hi: s.Hi, Step: s.Step, Body: cloneStmts(s.Body)}
	case *While:
		return &While{Cond: s.Cond, Body: cloneStmts(s.Body)}
	case *If:
		return &If{Cond: s.Cond, Then: cloneStmts(s.Then), Else: cloneStmts(s.Else)}
	case *Break:
		return &Break{}
	case *Continue:
		return &Continue{}
	case *Return:
		return &Return{}
	}
	return s
}

func cloneStmts(stmts []Stmt) []Stmt {
	out := make([]Stmt, len(stmts))
	for i, s := range stmts {
		out[i] = CloneStmt(s)
	}
	return out
}

// CloneFunc copies a function so that passes over the copy leave f
// untouched: the body is cloned statement by statement (see CloneStmt),
// the Params, Results and Locals slices are copied so appends do not
// alias, and the symbol counter carries over so symbols the copy
// allocates get the same IDs they would have gotten in f.
func CloneFunc(f *Func) *Func {
	return &Func{
		Name:    f.Name,
		Params:  append([]*Sym(nil), f.Params...),
		Results: append([]*Sym(nil), f.Results...),
		Locals:  append([]*Sym(nil), f.Locals...),
		Body:    cloneStmts(f.Body),
		nextID:  f.nextID,
	}
}
