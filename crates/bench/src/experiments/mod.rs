//! One module per paper artifact (table or figure).

pub mod ablation;
pub mod common;
mod fig11_12;
mod fig13;
pub mod fig14;
mod fig6;
mod fig7_10;
mod fig8_9;
pub mod sensitivity;
mod table1_2_3;
mod table4;
mod table5_6;

/// Runs every experiment in paper order, returning the combined output.
pub fn run_all() -> String {
    let mut out = String::new();
    for (name, f) in all() {
        out.push_str(&format!("\n######## {name} ########\n"));
        out.push_str(&f());
    }
    out
}

/// An experiment entry point.
pub(crate) type Runner = fn() -> String;

/// The experiment registry: (id, runner) in paper order.
pub fn all() -> Vec<(&'static str, Runner)> {
    vec![
        ("table1", table1_2_3::table1 as Runner),
        ("table2", table1_2_3::table2),
        ("table3", table1_2_3::table3),
        ("fig6", fig6::run),
        ("table4", table4::run),
        ("fig7", fig7_10::fig7),
        ("fig8", fig8_9::fig8),
        ("fig9", fig8_9::fig9),
        ("fig10", fig7_10::fig10),
        ("fig11", fig11_12::fig11),
        ("fig12", fig11_12::fig12),
        ("table5", table5_6::table5),
        ("table6", table5_6::table6),
        ("fig13", fig13::run),
        ("fig14", fig14::run),
        ("ablation", ablation::run),
        ("sensitivity", sensitivity::run),
    ]
}
