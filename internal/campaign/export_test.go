package campaign

// Spec builders shared with the external (package campaign_test) tests,
// which drive internal/controlplane and so cannot live in this package.
var (
	TestSpec  = testSpec
	StratSpec = stratSpec
	BufSpec   = bufSpec
	SysSpec   = sysSpec
)
