//! Figure 7: search-space restriction for the worked example of
//! Section 4.1.
//!
//! A four-predicate query selecting 10 of 100 tuples with true accesses
//! `[80, 70, 50, 10]` (sampled BNT = 210). Prints the cumulated accesses
//! of the search query and of the four bounds — the five lines of the
//! figure.

use popt_solver::bounds::{bnt_bounds, tuple_bounds};

use crate::common::{Figure, FigureCtx};

/// The example's true per-column accesses.
pub const EXAMPLE_ACCESSES: [u64; 4] = [80, 70, 50, 10];
/// Input tuples of the example.
pub const EXAMPLE_IN: u64 = 100;
/// Output tuples of the example.
pub const EXAMPLE_OUT: u64 = 10;

fn cumulate(values: &[u64]) -> Vec<u64> {
    values
        .iter()
        .scan(0u64, |acc, &v| {
            *acc += v;
            Some(*acc)
        })
        .collect()
}

/// Run the figure.
pub fn run(ctx: &FigureCtx) -> Figure {
    let mut fig = Figure::new(ctx, "7", "Search space restriction (Section 4.1 example)");
    let bnt: u64 = EXAMPLE_ACCESSES.iter().sum();
    let tuple = tuple_bounds(4, EXAMPLE_IN, EXAMPLE_OUT);
    let restricted = bnt_bounds(4, EXAMPLE_IN, EXAMPLE_OUT, bnt);
    let (t_lo, t_hi) = tuple.rounded();
    let (b_lo, b_hi) = restricted.rounded();

    let search = cumulate(&EXAMPLE_ACCESSES);
    let upper_tuple = cumulate(&t_hi);
    let lower_tuple = cumulate(&t_lo);
    let upper_bnt = cumulate(&b_hi);
    let lower_bnt = cumulate(&b_lo);

    fig.header(&[
        "columns",
        "search_query",
        "upper_tuple_bound",
        "lower_tuple_bound",
        "upper_bnt_bound",
        "lower_bnt_bound",
    ]);
    for i in 0..4 {
        fig.row(&[
            format!("col1..{}", i + 1),
            search[i].to_string(),
            upper_tuple[i].to_string(),
            lower_tuple[i].to_string(),
            upper_bnt[i].to_string(),
            lower_bnt[i].to_string(),
        ]);
    }
    fig.note(format!(
        "# per-column BNT bounds: lower {:?}, upper {:?} (paper: [67,50,10,10] / [100,95,66,10])",
        b_lo, b_hi
    ));
    fig
}

#[cfg(test)]
mod tests {
    use popt_obs::{parse_json, Json};

    use super::*;

    #[test]
    fn the_section_4_1_example_renders_its_nine_lines() {
        let fig = run(&FigureCtx::plain());
        let text = "
### Figure 7: Search space restriction (Section 4.1 example)
# config: mode=full llc=private sockets=1 trace=off
columns\tsearch_query\tupper_tuple_bound\tlower_tuple_bound\tupper_bnt_bound\tlower_bnt_bound
col1..1\t80\t100\t10\t100\t67
col1..2\t150\t200\t20\t195\t117
col1..3\t200\t300\t30\t261\t127
col1..4\t210\t310\t40\t271\t137
# per-column BNT bounds: lower [67, 50, 10, 10], upper [100, 95, 66, 10] (paper: [67,50,10,10] / [100,95,66,10])
";
        assert_eq!(fig.render(false, true), text);
        assert!(fig.metrics.is_empty(), "a pure example records no metric");

        let json = fig.render(true, true);
        let lines: Vec<Json> = json
            .lines()
            .map(|line| parse_json(line).unwrap_or_else(|e| panic!("{line}: {e}")))
            .collect();
        assert_eq!(lines.len(), 7, "banner, header, four rows, note");
        let kind = |line: &Json| line.get("type").and_then(Json::as_str).map(str::to_owned);
        let Some(Json::Arr(columns)) = lines[1].get("columns") else {
            panic!("the second line is the header");
        };
        for (k, row) in lines[2..6].iter().enumerate() {
            assert_eq!(kind(row).as_deref(), Some("row"));
            assert_eq!(row.get("figure").and_then(Json::as_str), Some("7"));
            let Some(Json::Obj(cells)) = row.get("cells") else {
                panic!("a row carries its cells as an object");
            };
            let keys: Vec<&str> = cells.iter().map(|(key, _)| key.as_str()).collect();
            let header: Vec<&str> = columns.iter().filter_map(Json::as_str).collect();
            assert_eq!(keys, header, "row {k} is keyed by the header");
        }
        assert_eq!(
            lines[2].get("cells").and_then(|c| c.get("search_query")),
            Some(&Json::Str("80".into()))
        );
        assert_eq!(kind(&lines[0]).as_deref(), Some("banner"));
        assert_eq!(
            lines[6].get("text").and_then(Json::as_str),
            Some(
                "per-column BNT bounds: lower [67, 50, 10, 10], upper [100, 95, 66, 10] \
                 (paper: [67,50,10,10] / [100,95,66,10])"
            )
        );
    }
}
