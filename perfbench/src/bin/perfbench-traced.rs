//! Traced benchmark binary: the per-layer ledger, with the real heap
//! counted by a global allocator for the space-meter check.

#[global_allocator]
static HEAP: adjstream_perfbench::ledger::CountingAlloc =
    adjstream_perfbench::ledger::CountingAlloc;

fn main() -> std::process::ExitCode {
    adjstream_perfbench::main_with(true)
}
