//! A small tgd evaluator of the benchmark's own.
//!
//! It judges a database against a mapping set by scanning the rendered tuples
//! (every tuple visible to an omniscient reader) with a plain backtracking
//! join, so a fault in the program's compiled violation plans cannot hide
//! itself. A mapping `Φ(x̄, ȳ) → ∃z̄ Ψ(x̄, z̄)` holds when every match of `Φ`
//! extends, on its frontier variables, to a match of `Ψ`. Labeled nulls are
//! values like any other: equal only to themselves.

use std::collections::HashMap;

use youtopia_mappings::{MappingSet, Tgd};
use youtopia_storage::{Atom, Database, RelationId, Symbol, Term, UpdateId, Value};

/// The rendered tuples of a database, with per-column value indexes built on
/// first use.
pub struct Instance {
    rows: HashMap<RelationId, Vec<Vec<Value>>>,
    index: HashMap<(RelationId, usize), HashMap<Value, Vec<usize>>>,
}

/// One match of a mapping's left-hand side with no right-hand side match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unsatisfied {
    /// Name of the violated mapping.
    pub mapping: String,
    /// Values of the left-hand side variables, in order of first occurrence.
    pub bindings: Vec<Value>,
}

type Binding = Vec<(Symbol, Value)>;

impl Instance {
    /// Reads every tuple an omniscient reader sees.
    pub fn render(db: &Database) -> Instance {
        let rows = db
            .catalog()
            .relation_ids()
            .map(|relation| {
                let tuples = db
                    .scan(relation, UpdateId::OMNISCIENT)
                    .into_iter()
                    .map(|(_, data)| data.to_vec())
                    .collect();
                (relation, tuples)
            })
            .collect();
        Instance { rows, index: HashMap::new() }
    }

    /// The first unsatisfied left-hand side match of every mapping that has
    /// one, in mapping order. Empty means the instance satisfies the set.
    pub fn unsatisfied(&mut self, mappings: &MappingSet) -> Vec<Unsatisfied> {
        mappings.iter().filter_map(|tgd| self.first_unsatisfied(tgd)).collect()
    }

    fn first_unsatisfied(&mut self, tgd: &Tgd) -> Option<Unsatisfied> {
        let mut found = None;
        let mut binding = Binding::new();
        self.search(&tgd.lhs, &mut vec![false; tgd.lhs.len()], &mut binding, &mut |me, lhs| {
            let mut seed: Binding =
                lhs.iter().copied().filter(|(v, _)| tgd.frontier_vars().contains(v)).collect();
            let mut satisfied = false;
            me.search(&tgd.rhs, &mut vec![false; tgd.rhs.len()], &mut seed, &mut |_, _| {
                satisfied = true;
                true
            });
            if !satisfied {
                found = Some(Unsatisfied {
                    mapping: tgd.name.clone(),
                    bindings: lhs.iter().map(|(_, v)| *v).collect(),
                });
            }
            !satisfied
        });
        found
    }

    /// Enumerates the matches of `atoms` extending `binding`, calling
    /// `visit` on each; stops (returning true) once `visit` returns true.
    fn search(
        &mut self,
        atoms: &[Atom],
        used: &mut Vec<bool>,
        binding: &mut Binding,
        visit: &mut dyn FnMut(&mut Instance, &Binding) -> bool,
    ) -> bool {
        // Join the unused atom with the most bound terms next.
        let next = (0..atoms.len())
            .filter(|&i| !used[i])
            .max_by_key(|&i| atoms[i].terms.iter().filter(|t| bound(t, binding).is_some()).count());
        let Some(next) = next else { return visit(self, binding) };
        let atom = &atoms[next];
        let candidates: Vec<usize> = match atom
            .terms
            .iter()
            .enumerate()
            .find_map(|(col, t)| bound(t, binding).map(|v| (col, v)))
        {
            Some((col, value)) => self.lookup(atom.relation, col, value).to_vec(),
            None => (0..self.rows.get(&atom.relation).map_or(0, Vec::len)).collect(),
        };
        used[next] = true;
        for row in candidates {
            let depth = binding.len();
            if self.extend(atom, row, binding) && self.search(atoms, used, binding, visit) {
                binding.truncate(depth);
                used[next] = false;
                return true;
            }
            binding.truncate(depth);
        }
        used[next] = false;
        false
    }

    /// Matches `atom` against tuple `row`, pushing new variable bindings.
    fn extend(&self, atom: &Atom, row: usize, binding: &mut Binding) -> bool {
        let values = &self.rows[&atom.relation][row];
        if values.len() != atom.terms.len() {
            return false;
        }
        for (term, value) in atom.terms.iter().zip(values) {
            match bound(term, binding) {
                Some(expected) if expected != *value => return false,
                Some(_) => {}
                None => {
                    let Term::Var(v) = term else { unreachable!("constants are always bound") };
                    binding.push((*v, *value));
                }
            }
        }
        true
    }

    fn lookup(&mut self, relation: RelationId, col: usize, value: Value) -> &[usize] {
        let rows = &self.rows;
        let index = self.index.entry((relation, col)).or_insert_with(|| {
            let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
            for (i, tuple) in rows.get(&relation).into_iter().flatten().enumerate() {
                if let Some(v) = tuple.get(col) {
                    index.entry(*v).or_default().push(i);
                }
            }
            index
        });
        index.get(&value).map_or(&[], Vec::as_slice)
    }
}

fn bound(term: &Term, binding: &Binding) -> Option<Value> {
    match term {
        Term::Const(c) => Some(*c),
        Term::Var(v) => binding.iter().find(|(s, _)| s == v).map(|(_, value)| *value),
    }
}

/// Every mapping `db` leaves unsatisfied (at most one witness per mapping).
pub fn unsatisfied(db: &Database, mappings: &MappingSet) -> Vec<Unsatisfied> {
    Instance::render(db).unsatisfied(mappings)
}
