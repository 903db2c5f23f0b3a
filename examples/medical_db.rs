//! Medical database: the Section 4 "security sensitive reads" variant.
//!
//! An academic/medical database (another of the paper's Section 6 target
//! applications): most queries are routine look-ups that untrusted
//! replicas may serve, but a fraction — say, queries that inform treatment
//! decisions — are marked *security sensitive* and "executed only by the
//! trusted servers (which guarantees that clients always get correct
//! results)".
//!
//! The `medical_db` scenario sweeps the sensitive fraction with one
//! compromised replica; the whole table is one `Runner` invocation.
//!
//! Run with: `cargo run --release --example medical_db`

use secure_replication::core::scenario::{registry, Runner};

fn main() {
    let spec = registry::lookup("medical_db").expect("registered scenario");

    println!("hospital database with one compromised replica (lies on 25% of reads)");
    println!("sweep: what fraction of queries do clinicians mark sensitive?\n");
    println!(
        "{:>20} {:>16} {:>15} {:>15} {:>18}",
        "sensitive fraction", "sensitive reads", "total accepted", "wrong accepted", "master CPU (%)"
    );

    let report = Runner::new(spec).run().expect("scenario runs");
    for cell in &report.cells {
        let sf = cell.coord("sensitive fraction").unwrap_or(0.0);
        let stats = &cell.runs[0].stats;
        let trusted_cpu = stats.serving_master_utilisation() * 100.0;
        println!(
            "{sf:>20.2} {:>16} {:>15} {:>15} {trusted_cpu:>18.2}",
            stats.reads_sensitive, stats.reads_accepted, stats.wrong_accepted
        );
    }

    println!(
        "\nreading the table: every wrong answer came through the *normal* path; \n\
         sensitive queries were answered by trusted masters and were always correct.\n\
         The price is the trusted-CPU column — exactly the paper's stated trade-off.\n\
         (In production you would also keep double-checking and auditing on; they are\n\
         disabled here so the variant's effect is visible in isolation.)"
    );
}
