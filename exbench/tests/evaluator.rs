//! The benchmark's own tgd evaluator: it flags hand-built violations and
//! agrees with the program's `satisfies_all` on generated fixtures.

use youtopia_exbench::tgdcheck::unsatisfied;
use youtopia_mappings::{satisfies_all, MappingSet};
use youtopia_storage::{Database, Term, UpdateId};
use youtopia_workload::{build_fixture, ExperimentConfig};

fn travel() -> (Database, MappingSet) {
    let mut db = Database::new();
    db.add_relation("C", ["city"]).unwrap();
    db.add_relation("S", ["code", "location", "city_served"]).unwrap();
    db.add_relation("A", ["location", "name"]).unwrap();
    db.add_relation("T", ["attraction", "company", "tour_start"]).unwrap();
    db.add_relation("R", ["company", "attraction", "review"]).unwrap();
    let mut mappings = MappingSet::new();
    mappings
        .add_parsed_many(
            db.catalog(),
            "
            sigma1: C(c) -> exists a, l. S(a, l, c)
            sigma3: A(l, n) & T(n, c, cs) -> exists r. R(c, n, r)
            ",
        )
        .unwrap();
    (db, mappings)
}

#[test]
fn flags_a_hand_built_violation_and_its_repair() {
    let (mut db, mappings) = travel();
    let u = UpdateId(0);
    assert!(unsatisfied(&db, &mappings).is_empty(), "the empty database satisfies everything");

    db.insert_by_name("C", &["Ithaca"], u);
    let found = unsatisfied(&db, &mappings);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].mapping, "sigma1");
    db.insert_by_name("S", &["ITH", "Ithaca Airport", "Ithaca"], u);
    assert!(unsatisfied(&db, &mappings).is_empty());

    // A join on the left: the review exists, but for another company.
    db.insert_by_name("A", &["Geneva", "Geneva Winery"], u);
    db.insert_by_name("T", &["Geneva Winery", "XYZ", "Syracuse"], u);
    db.insert_by_name("R", &["ABC", "Geneva Winery", "Great!"], u);
    let found = unsatisfied(&db, &mappings);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].mapping, "sigma3");
    assert!(!satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), &mappings));
    db.insert_by_name("R", &["XYZ", "Geneva Winery", "Fine."], u);
    assert!(unsatisfied(&db, &mappings).is_empty());
    assert!(satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), &mappings));
}

#[test]
fn agrees_with_satisfies_all_on_a_generated_fixture() {
    let fixture = build_fixture(&ExperimentConfig::quick()).unwrap();
    let (db, mappings) = (&fixture.initial_db, &fixture.mappings);
    assert!(satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), mappings));
    assert!(unsatisfied(db, mappings).is_empty());

    // Break each mapping in turn: insert its left-hand side with a fresh
    // constant for every variable, then ask both evaluators.
    let mut broken = 0;
    for tgd in mappings.iter() {
        let mut db = db.clone();
        for atom in &tgd.lhs {
            let values: Vec<String> = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => format!("probe_{v:?}"),
                    Term::Const(c) => c.to_string(),
                })
                .collect();
            let values: Vec<&str> = values.iter().map(String::as_str).collect();
            let name = db.schema(atom.relation).name.clone();
            db.insert_by_name(&name, &values, UpdateId(0));
        }
        let compiled = satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), mappings);
        let own = unsatisfied(&db, mappings);
        assert_eq!(compiled, own.is_empty(), "disagreement after breaking {}", tgd.name);
        broken += usize::from(!compiled);
    }
    assert!(broken > 0, "no probe broke a mapping");
}
