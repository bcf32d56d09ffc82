//! Untraced benchmark binary: end-to-end metrics. See the crate docs.

fn main() -> std::process::ExitCode {
    adjstream_perfbench::main_with(false)
}
