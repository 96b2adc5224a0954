package ir

// Walk visits every statement in pre-order. The visitor returns false to
// skip a node's children.
func Walk(body []Stmt, visit func(Stmt) bool) {
	for _, s := range body {
		if !visit(s) {
			continue
		}
		switch x := s.(type) {
		case *For:
			Walk(x.Body, visit)
		case *If:
			Walk(x.Then, visit)
			Walk(x.Else, visit)
		}
	}
}

// Rewrite maps every statement bottom-up through fn; fn may return a
// replacement list (nil keeps the statement, an empty non-nil slice deletes
// it). Children are rewritten before their parents see them.
func Rewrite(body []Stmt, fn func(Stmt) []Stmt) []Stmt {
	out := make([]Stmt, 0, len(body))
	for _, s := range body {
		switch x := s.(type) {
		case *For:
			x.Body = Rewrite(x.Body, fn)
		case *If:
			x.Then = Rewrite(x.Then, fn)
			x.Else = Rewrite(x.Else, fn)
		}
		if repl := fn(s); repl != nil {
			out = append(out, repl...)
		} else {
			out = append(out, s)
		}
	}
	return out
}

// CountKind counts statements matching the predicate anywhere in the tree.
func CountKind(body []Stmt, pred func(Stmt) bool) int {
	n := 0
	Walk(body, func(s Stmt) bool {
		if pred(s) {
			n++
		}
		return true
	})
	return n
}
