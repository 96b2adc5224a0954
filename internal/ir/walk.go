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
