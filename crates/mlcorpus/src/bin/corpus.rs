//! Dumps a corpus module's source and EDL to files, so shell harnesses
//! (CI's kill-and-resume step, manual CLI runs) can analyze the shipped
//! modules without copying their sources into heredocs.
//!
//! ```text
//! corpus <module> <source-out.c> <edl-out.edl>
//! ```
//!
//! `<module>` is one of `linear-regression`, `kmeans`,
//! `kmeans-entry-branching` (the budget-cut variant, see
//! `mlcorpus::kmeans::entry_branching`), `recommender`,
//! `recommender-vulnerable`. The module's entry ECALL name is printed on
//! stdout. Exit code 0 on success, 2 on usage or I/O errors.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(entry) => {
            println!("{entry}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("corpus: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<&'static str, String> {
    let [name, source_out, edl_out] = args else {
        return Err(
            "usage: corpus <linear-regression|kmeans|kmeans-entry-branching|recommender|\
             recommender-vulnerable> <source-out.c> <edl-out.edl>"
                .into(),
        );
    };
    let module = match name.as_str() {
        "linear-regression" => mlcorpus::linear_regression::module(),
        "kmeans" => mlcorpus::kmeans::module(),
        "kmeans-entry-branching" => mlcorpus::kmeans::entry_branching(),
        "recommender" => mlcorpus::recommender::module(),
        "recommender-vulnerable" => mlcorpus::recommender_vulnerable(),
        other => return Err(format!("unknown corpus module `{other}`")),
    };
    module.validate().map_err(|e| e.to_string())?;
    std::fs::write(source_out, module.source)
        .map_err(|e| format!("cannot write `{source_out}`: {e}"))?;
    std::fs::write(edl_out, module.edl).map_err(|e| format!("cannot write `{edl_out}`: {e}"))?;
    Ok(module.entry)
}
