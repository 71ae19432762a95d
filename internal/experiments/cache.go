package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
)

// ResultCache is the content-addressed store for sweep Results. A nil
// *ResultCache in SweepConfig disables caching entirely (the -no-cache
// path), which reproduces the uncached engine exactly.
type ResultCache = resultcache.Cache[Result]

// CacheDirEnv overrides the default cache directory when set.
const CacheDirEnv = "TRACEREBASE_CACHE_DIR"

// DefaultCacheDir resolves the cache root: $TRACEREBASE_CACHE_DIR if set,
// else <user cache dir>/tracerebase (~/.cache/tracerebase on Linux).
func DefaultCacheDir() (string, error) {
	if dir := os.Getenv(CacheDirEnv); dir != "" {
		return dir, nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("experiments: no cache dir: %w", err)
	}
	return filepath.Join(base, "tracerebase"), nil
}

// OpenResultCache opens the result cache rooted at dir ("" = the
// DefaultCacheDir resolution) with the given size bound (0 = the
// resultcache default of 1 GiB).
func OpenResultCache(dir string, maxBytes int64) (*ResultCache, error) {
	if dir == "" {
		var err error
		dir, err = DefaultCacheDir()
		if err != nil {
			return nil, err
		}
	}
	return resultcache.Open[Result](
		resultcache.Config{Dir: dir, MaxBytes: maxBytes},
		resultcache.BinaryCodec[Result]{},
	)
}

// NewResultCache builds a result cache over an already-composed backend
// (e.g. a memory/disk/remote Tiered stack for the serve daemon). The
// cache owns the backend: Close flushes and closes it.
func NewResultCache(b resultcache.Backend) *ResultCache {
	return resultcache.New[Result](b, resultcache.BinaryCodec[Result]{})
}

// rulesFor returns the ChampSim branch-deduction rules a converted trace
// needs: traces carrying the branch-regs improvement require the §3.2.2
// patched rules. Every simulation in this package pairs rules with options
// through this single function, so cache keys cannot desynchronize from
// the dispatch path.
func rulesFor(opts core.Options) champtrace.RuleSet {
	if opts.BranchRegs {
		return champtrace.RulesPatched
	}
	return champtrace.RulesOriginal
}

// DevelopConfigFor returns the develop-model simulator configuration used
// for a trace converted under opts — the sweep's per-variant config.
func DevelopConfigFor(opts core.Options) sim.Config {
	return sim.ConfigDevelop(rulesFor(opts))
}

// profileHash hashes the canonical profile encoding (which embeds
// synth.GeneratorVersion).
func profileHash(p *synth.Profile) resultcache.Key {
	return resultcache.NewHasher("tracerebase/profile").
		Bytes(p.AppendCanonical(nil)).Sum()
}

// optionsHash hashes the converter improvement set.
func optionsHash(opts core.Options) resultcache.Key {
	return resultcache.NewHasher("tracerebase/options").
		U64(uint64(opts.Bits())).Sum()
}

// configHash hashes the full simulator configuration identity.
func configHash(cfg sim.Config) resultcache.Key {
	return resultcache.NewHasher("tracerebase/simconfig").
		Str(cfg.Identity()).Sum()
}

// cacheKey derives the content address of one (trace, variant, config)
// Result. The key covers everything the Result is a function of: the
// synthetic profile (with generator version), the converter improvement
// set, the full simulator configuration, the run lengths, the record
// schema version, and the code fingerprint. See DESIGN.md "Result cache"
// for the invalidation rules.
func cacheKey(p *synth.Profile, opts core.Options, cfg sim.Config, instructions int, warmup uint64) resultcache.Key {
	return resultKey(profileHash(p), optionsHash(opts), configHash(cfg), instructions, warmup)
}

// resultKey combines the component hashes of cacheKey, so callers keying
// many cells can hash each profile and configuration once.
func resultKey(ph, oh, ch resultcache.Key, instructions int, warmup uint64) resultcache.Key {
	return resultcache.NewHasher("tracerebase/result").
		U64(resultcache.SchemaVersion).
		Str(resultcache.Fingerprint()).
		Bytes(ph[:]).
		Bytes(oh[:]).
		Bytes(ch[:]).
		U64(uint64(instructions)).
		U64(warmup).
		Sum()
}

// CacheKeyInfo breaks a cache key into its components for display —
// `traceinfo -cachekey` prints it so unexpected misses can be debugged
// component by component.
type CacheKeyInfo struct {
	// ProfileHash covers the synthetic profile and generator version.
	ProfileHash string
	// OptionsHash covers the converter improvement set.
	OptionsHash string
	// ConfigHash covers the full simulator configuration identity.
	ConfigHash string
	// ConfigIdentity is the human-readable pre-image of ConfigHash.
	ConfigIdentity string
	// Fingerprint identifies the code of the running binary.
	Fingerprint string
	// SchemaVersion is the cache record schema generation.
	SchemaVersion int
	// Instructions and Warmup are the run lengths mixed into the key.
	Instructions int
	Warmup       uint64
	// Key is the final content address.
	Key string
}

// CacheKey computes the full key derivation for one (trace, variant,
// config) cell.
func CacheKey(p synth.Profile, opts core.Options, cfg sim.Config, instructions int, warmup uint64) CacheKeyInfo {
	ph := profileHash(&p)
	oh := optionsHash(opts)
	ch := configHash(cfg)
	return CacheKeyInfo{
		ProfileHash:    ph.String(),
		OptionsHash:    oh.String(),
		ConfigHash:     ch.String(),
		ConfigIdentity: cfg.Identity(),
		Fingerprint:    resultcache.Fingerprint(),
		SchemaVersion:  resultcache.SchemaVersion,
		Instructions:   instructions,
		Warmup:         warmup,
		Key:            cacheKey(&p, opts, cfg, instructions, warmup).String(),
	}
}
