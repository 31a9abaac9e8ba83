package core

import (
	"fmt"

	"repro/internal/machine"
)

// ValidateConfig checks a (model, config) pair before any virtual time is
// spent, returning a descriptive error for mistakes that previously
// surfaced as panics deep inside a run: a nil machine model, a negative
// migration period, out-of-range fault probabilities, or a lossy fault
// configuration without the reliable-delivery layer to survive it.
func ValidateConfig(mdl *machine.Model, cfg Config) error {
	if mdl == nil {
		return fmt.Errorf("core: machine model is nil (use machine.CM5/T3D/SPARCStation or machine.ByName)")
	}
	if cfg.MigrationPeriod < 0 {
		return fmt.Errorf("core: MigrationPeriod = %d is negative; use 0 to disable the heartbeat", cfg.MigrationPeriod)
	}
	if cfg.MigrationPeriod > 0 && cfg.Migration == nil {
		return fmt.Errorf("core: MigrationPeriod = %d set without a Migration policy", cfg.MigrationPeriod)
	}
	if cfg.MaxMsgWords < 0 {
		return fmt.Errorf("core: MaxMsgWords = %d is negative; use 0 for the default", cfg.MaxMsgWords)
	}
	if cfg.MaxForwardHops < 0 {
		return fmt.Errorf("core: MaxForwardHops = %d is negative; use 0 for the default", cfg.MaxForwardHops)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return err
	}
	if cfg.Faults.Lossy() && !cfg.Reliable {
		return fmt.Errorf("core: Faults can drop or duplicate messages (Drop=%g, Dup=%g) but Reliable is off; "+
			"handlers would be lost or run twice — set Config.Reliable", cfg.Faults.Drop, cfg.Faults.Dup)
	}
	if cfg.CheckpointPeriod < 0 {
		return fmt.Errorf("core: CheckpointPeriod = %d is negative; use 0 to disable checkpointing", cfg.CheckpointPeriod)
	}
	if cfg.Faults.Crashy() {
		if !cfg.Reliable {
			return fmt.Errorf("core: Faults crash nodes (CrashEvery=%d) but Reliable is off; "+
				"rejoin needs the link layer's incarnation epochs to reject stale frames — set Config.Reliable", cfg.Faults.CrashEvery)
		}
		if cfg.Migration != nil {
			return fmt.Errorf("core: Faults crash nodes but a Migration policy is installed; " +
				"checkpoint/restore assumes static placement (owner == birth node) — run crashes without migration")
		}
	}
	return nil
}
