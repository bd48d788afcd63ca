package deviant

import (
	"testing"
)

// TestRankTieBreakOrders pins each derived table's order among
// equal-score instances. Every case pairs two slot instances with the
// same evidence whose order under the checker's key comparison differs
// from the order of their joined key strings ("foo?capable" sorts after
// "foo1?capable", "a:b1" after "a1:b", "a@l" after "a.b@l"), so a
// comparator swapped for the other one fails here — the seeded corpora
// happen not to contain such a tie.
func TestRankTieBreakOrders(t *testing.T) {
	cases := []struct {
		name        string
		src         string
		table       func(*Result) [][2]string
		first, next [2]string
	}{
		{
			name: "seccheck",
			src: `int capable(int c);
void foo(void);
void foo1(void);
void g1(void) { if (!capable(1)) return; foo(); }
void g2(void) { foo(); }
void g3(void) { if (!capable(1)) return; foo1(); }
void g4(void) { foo1(); }
`,
			table: func(res *Result) (out [][2]string) {
				for _, d := range res.SecChecks {
					out = append(out, [2]string{d.Key.Action, d.Key.Check})
				}
				return out
			},
			first: [2]string{"foo", "capable"},
			next:  [2]string{"foo1", "capable"},
		},
		{
			name: "pairing",
			src: `void a(void);
void b(void);
void a1(void);
void b1(void);
void f1(void) { a(); b1(); }
void f2(void) { a1(); b(); }
`,
			table: func(res *Result) (out [][2]string) {
				for _, p := range res.Pairs {
					out = append(out, [2]string{p.Key.A, p.Key.B})
				}
				return out
			},
			first: [2]string{"a", "b1"},
			next:  [2]string{"a1", "b"},
		},
		{
			name: "reverse",
			src: `void a(void);
void b(void);
void a1(void);
void b1(void);
int f1(void) { a(); b1(); return -1; }
int f2(void) { a1(); b(); return -1; }
`,
			table: func(res *Result) (out [][2]string) {
				for _, r := range res.Reversals {
					out = append(out, [2]string{r.Key.A, r.Key.B})
				}
				return out
			},
			first: [2]string{"a", "b1"},
			next:  [2]string{"a1", "b"},
		},
		{
			name: "lockvar",
			src: `struct S { int b; };
struct S a;
int l;
void spin_lock(int *p);
void spin_unlock(int *p);
void use(struct S s);
void f1(void) { spin_lock(&l); a.b = 1; spin_unlock(&l); }
void f2(void) { a.b = 2; }
void f3(void) { spin_lock(&l); use(a); spin_unlock(&l); }
void f4(void) { use(a); }
`,
			table: func(res *Result) (out [][2]string) {
				for _, lb := range res.LockBindings {
					out = append(out, [2]string{lb.Key.Var, lb.Key.Lock})
				}
				return out
			},
			first: [2]string{"a.b", "l"},
			next:  [2]string{"a", "l"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Analyze(map[string]string{"t.c": tc.src}, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.ParseErrors) != 0 {
				t.Fatalf("parse: %v", res.ParseErrors[0])
			}
			rows := tc.table(res)
			at := func(key [2]string) int {
				for i, r := range rows {
					if r == key {
						return i
					}
				}
				t.Fatalf("%v not derived; table: %v", key, rows)
				return -1
			}
			i, j := at(tc.first), at(tc.next)
			if j != i+1 {
				t.Fatalf("%v at %d, %v at %d: want the first directly before the next; table: %v",
					tc.first, i, tc.next, j, rows)
			}
		})
	}
}
