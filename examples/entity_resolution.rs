//! Entity resolution with recursively-defined keys (GEDs whose
//! consequence is an id literal — §IX of the paper, keys per [27]).
//!
//! The scenario: a music knowledge base ingested from two sources, with
//! duplicate artists, albums and record labels. Keys identify duplicates
//! — but the album key requires *the same artist entity*, so albums can
//! only merge after artists do, and labels only after albums: resolution
//! is recursive, taking multiple fixpoint rounds.
//!
//! Run with: `cargo run --release --example entity_resolution`

use gfd::ged::{resolve_entities, Ged, GedLiteral, Key};
use gfd::prelude::*;

fn main() {
    let mut vocab = Vocab::new();
    let artist = vocab.label("artist");
    let album = vocab.label("album");
    let label_l = vocab.label("recordLabel");
    let by = vocab.label("by");
    let released_on = vocab.label("releasedOn");
    let name = vocab.attr("name");
    let title = vocab.attr("title");
    let year = vocab.attr("year");

    // ── 1. A dirty graph: every entity ingested twice ───────────────────
    let mut g = Graph::new();
    let duplicate_entity = |g: &mut Graph, label, attr, value: &str| {
        let a = g.add_node(label);
        let b = g.add_node(label);
        g.set_attr(a, attr, Value::str(value));
        g.set_attr(b, attr, Value::str(value));
        (a, b)
    };
    let (ar1, ar2) = duplicate_entity(&mut g, artist, name, "Miles Davis");
    let (al1, al2) = duplicate_entity(&mut g, album, title, "Kind of Blue");
    let (lb1, lb2) = duplicate_entity(&mut g, label_l, name, "Columbia");
    // Divergent source data: only one copy knows the year.
    g.set_attr(al1, year, Value::int(1959));
    g.set_attr(al2, year, Value::int(1958)); // a data-entry error
                                             // Each source wired its own copies together.
    g.add_edge(al1, by, ar1);
    g.add_edge(al2, by, ar2);
    g.add_edge(al1, released_on, lb1);
    g.add_edge(al2, released_on, lb2);

    println!(
        "dirty graph: {} nodes, {} edges ({} artists, {} albums, {} labels)",
        g.node_count(),
        g.edge_count(),
        2,
        2,
        2
    );

    // ── 2. Keys ──────────────────────────────────────────────────────────
    // artist key: same name → same artist. (A simplification — real KBs
    // use richer evidence; the point is the recursion below.)
    let mut p = Pattern::new();
    let x = p.add_node(artist, "x");
    let y = p.add_node(artist, "y");
    let artist_key = Key::new(Ged::conjunctive(
        "artist-by-name",
        p,
        vec![GedLiteral::eq_attr(x, name, y, name)],
        vec![GedLiteral::id(x, y)],
    ))
    .expect("an id consequence");

    // album key: same title AND the same artist *entity* → same album.
    let mut p = Pattern::new();
    let x = p.add_node(album, "x");
    let y = p.add_node(album, "y");
    let a = p.add_node(artist, "a");
    p.add_edge(x, by, a);
    p.add_edge(y, by, a);
    let album_key = Key::new(Ged::conjunctive(
        "album-by-title-and-artist",
        p,
        vec![GedLiteral::eq_attr(x, title, y, title)],
        vec![GedLiteral::id(x, y)],
    ))
    .expect("an id consequence");

    // label key: same name AND released the same album entity.
    let mut p = Pattern::new();
    let x = p.add_node(label_l, "x");
    let y = p.add_node(label_l, "y");
    let al = p.add_node(album, "al");
    p.add_edge(al, released_on, x);
    p.add_edge(al, released_on, y);
    let label_key = Key::new(Ged::conjunctive(
        "label-by-name-and-album",
        p,
        vec![GedLiteral::eq_attr(x, name, y, name)],
        vec![GedLiteral::id(x, y)],
    ))
    .expect("an id consequence");

    for key in [&artist_key, &album_key, &label_key] {
        println!("key: {}", key.ged.display(&vocab));
    }

    // ── 3. Resolve ───────────────────────────────────────────────────────
    let r = resolve_entities(&g, &[artist_key, album_key, label_key]);
    println!(
        "\nresolved in {} round(s): {} merges, {} nodes remain",
        r.rounds,
        r.merges,
        r.resolved.node_count()
    );
    assert_eq!(
        r.resolved.node_count(),
        3,
        "one artist, one album, one label"
    );
    assert!(
        r.rounds >= 3,
        "labels merge only after albums, which merge only after artists"
    );
    assert_eq!(r.class_of[ar1.index()], r.class_of[ar2.index()]);
    assert_eq!(r.class_of[al1.index()], r.class_of[al2.index()]);
    assert_eq!(r.class_of[lb1.index()], r.class_of[lb2.index()]);

    // ── 4. Merging surfaced a data-quality problem ───────────────────────
    println!("\nattribute conflicts found while merging:");
    for c in &r.conflicts {
        println!(
            "  resolved node n{} attribute `{}`: kept {:?}, dropped {:?}",
            c.node.index(),
            vocab.attr_name(c.attr),
            c.kept,
            c.dropped
        );
    }
    assert_eq!(r.conflicts.len(), 1, "the two album years disagree");
}
