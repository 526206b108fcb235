//! `gfd fmt FILE` — canonical reformatting.

use crate::args::{load_document, ArgError, Parsed};
use std::io::Write;

const HELP: &str = "\
gfd fmt FILE [--write]

Parses FILE and prints it in the canonical DSL form: graphs first, then
rules (`gfd` and `ggd` blocks, `create` consequences canonicalized), then
GEDs. With --write, the file is rewritten in place.
Exit code: 0, or 2 on parse error.
";

pub(crate) fn run(args: Parsed, out: &mut dyn Write) -> Result<i32, ArgError> {
    if args.flag("help") {
        let _ = write!(out, "{HELP}");
        return Ok(0);
    }
    let path = args.positional(0, "FILE")?.to_string();
    let write_back = args.flag("write");
    args.finish()?;

    let mut vocab = gfd_graph::Vocab::new();
    let doc = load_document(&path, &mut vocab)?;
    let mut text = String::new();
    for (name, graph) in &doc.graphs {
        text.push_str(&gfd_dsl::print_graph(name, graph, &vocab));
        text.push('\n');
    }
    // `gfd` and `ggd` blocks in source order, then the GEDs.
    text.push_str(&gfd_dsl::print_dep_set(&doc.deps, &vocab));
    text.push_str(&gfd_dsl::print_ged_set(&doc.geds, &vocab));

    if write_back {
        std::fs::write(&path, &text)
            .map_err(|e| ArgError::new(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "rewrote {path}");
    } else {
        let _ = write!(out, "{text}");
    }
    Ok(0)
}
