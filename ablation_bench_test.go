// Ablation benchmarks for the design choices DESIGN.md calls out: the same
// workload with one semantic knob flipped at a time.
package script_test

import (
	"fmt"
	"testing"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/perfbench"
)

// BenchmarkAblationInitiationPolicy runs one identical star-shaped body
// under delayed vs immediate initiation (same termination), isolating the
// cost of atomic matching vs incremental admission.
func BenchmarkAblationInitiationPolicy(b *testing.B) {
	const n = 8
	for _, init := range []core.Initiation{core.DelayedInitiation, core.ImmediateInitiation} {
		b.Run("initiation="+init.String(), func(b *testing.B) {
			def := core.NewScript("abl_init").
				Role(patterns.RoleSender, func(rc core.Ctx) error {
					for i := 1; i <= n; i++ {
						if err := rc.Send(ids.Member(patterns.RoleRecipient, i), 1); err != nil {
							return err
						}
					}
					return nil
				}).
				Family(patterns.RoleRecipient, n, func(rc core.Ctx) error {
					_, err := rc.Recv(ids.Role(patterns.RoleSender))
					return err
				}).
				Initiation(init).
				Termination(core.ImmediateTermination).
				MustBuild()
			perfbench.Broadcast(b, def, n)
		})
	}
}

// BenchmarkAblationTerminationPolicy isolates delayed vs immediate release.
func BenchmarkAblationTerminationPolicy(b *testing.B) {
	const n = 8
	for _, term := range []core.Termination{core.DelayedTermination, core.ImmediateTermination} {
		b.Run("termination="+term.String(), func(b *testing.B) {
			def := core.NewScript("abl_term").
				Role(patterns.RoleSender, func(rc core.Ctx) error {
					for i := 1; i <= n; i++ {
						if err := rc.Send(ids.Member(patterns.RoleRecipient, i), 1); err != nil {
							return err
						}
					}
					return nil
				}).
				Family(patterns.RoleRecipient, n, func(rc core.Ctx) error {
					_, err := rc.Recv(ids.Role(patterns.RoleSender))
					return err
				}).
				Initiation(core.DelayedInitiation).
				Termination(term).
				MustBuild()
			perfbench.Broadcast(b, def, n)
		})
	}
}

// BenchmarkAblationPartnerNaming compares partners-unnamed enrollment with
// full partners-named enrollment (every participant pins every other),
// isolating the matcher's constraint-checking cost.
func BenchmarkAblationPartnerNaming(b *testing.B) {
	const n = 4
	def := patterns.StarBroadcast(n)

	full := map[ids.RoleRef]ids.PIDSet{ids.Role(patterns.RoleSender): ids.NewPIDSet("T")}
	for i := 1; i <= n; i++ {
		full[ids.Member(patterns.RoleRecipient, i)] = ids.NewPIDSet(ids.PID(fmt.Sprintf("R%d", i)))
	}

	for _, named := range []bool{false, true} {
		name := "naming=unnamed"
		var with map[ids.RoleRef]ids.PIDSet
		if named {
			name, with = "naming=full", full
		}
		b.Run(name, func(b *testing.B) {
			in := core.NewInstance(def)
			defer in.Close()
			recipients := make([]core.Enrollment, n)
			for i := range recipients {
				recipients[i] = core.Enrollment{
					PID: ids.PID(fmt.Sprintf("R%d", i+1)), Role: ids.Member(patterns.RoleRecipient, i+1), With: with,
				}
			}
			perfbench.Cast(b, in.Enroll, in.Close, recipients, func(i int) core.Enrollment {
				return core.Enrollment{PID: "T", Role: ids.Role(patterns.RoleSender), Args: []any{i}, With: with}
			})
		})
	}
}

// BenchmarkAblationCriticalSets compares a lock-manager-shaped script with
// explicit critical sets (reader XOR writer suffices) against an
// all-roles-critical variant where both must always enroll.
func BenchmarkAblationCriticalSets(b *testing.B) {
	const k = 3
	build := func(withCritical bool) core.Definition {
		builder := core.NewScript("abl_crit").
			Family("m", k, func(rc core.Ctx) error {
				for _, client := range []ids.RoleRef{ids.Role("rd"), ids.Role("wr")} {
					if rc.Terminated(client) {
						continue
					}
					if _, err := rc.Recv(client); err != nil {
						return err
					}
				}
				return nil
			}).
			Role("rd", func(rc core.Ctx) error {
				for i := 1; i <= k; i++ {
					if err := rc.Send(ids.Member("m", i), "r"); err != nil {
						return err
					}
				}
				return nil
			}).
			Role("wr", func(rc core.Ctx) error {
				for i := 1; i <= k; i++ {
					if err := rc.Send(ids.Member("m", i), "w"); err != nil {
						return err
					}
				}
				return nil
			})
		if withCritical {
			managers := ids.FamilyMembers("m", k)
			builder = builder.
				CriticalSet(append(append([]ids.RoleRef{}, managers...), ids.Role("rd"))...).
				CriticalSet(append(append([]ids.RoleRef{}, managers...), ids.Role("wr"))...)
		}
		return builder.MustBuild()
	}

	// With critical sets only the reader enrolls per performance; without,
	// a writer must participate in every performance too.
	for _, withCritical := range []bool{true, false} {
		name := "critical=declared"
		if !withCritical {
			name = "critical=all-roles"
		}
		b.Run(name, func(b *testing.B) {
			in := core.NewInstance(build(withCritical))
			defer in.Close()
			residents := make([]core.Enrollment, 0, k+1)
			for i := 1; i <= k; i++ {
				residents = append(residents, core.Enrollment{PID: ids.PID(fmt.Sprintf("M%d", i)), Role: ids.Member("m", i)})
			}
			if !withCritical {
				residents = append(residents, core.Enrollment{PID: "W", Role: ids.Role("wr")})
			}
			perfbench.Cast(b, in.Enroll, in.Close, residents, func(int) core.Enrollment {
				return core.Enrollment{PID: "R", Role: ids.Role("rd")}
			})
		})
	}
}
