//! `mswj-experiments [FIGURE...] [OPTIONS]`: prints the paper's tables and
//! figures (see `--help`).  Without a figure name it prints all seven, each
//! under a `================ name ================` separator.  A figure that
//! fails panics, which ends the run with a nonzero exit status.

use mswj_experiments::Context;

fn main() {
    let (context, figures) = Context::from_args();
    for (name, figure) in &figures {
        if figures.len() > 1 {
            println!("\n================ {name} ================\n");
        }
        print!("{}", figure(&context));
    }
    context.finish();
}
