module butterfly

go 1.24

// A go line ≥ 1.24 flips this default to 2: net.Listen then opens MPTCP
// sockets where the kernel has them, and butterflyd's accepted connections
// run through the kernel's MPTCP layer although no client dials MPTCP.
// Every number in EXPERIMENTS.md and benchmark/results/ was measured over
// plain TCP listeners; keep that transport until a measurement says otherwise.
godebug multipathtcp=0
