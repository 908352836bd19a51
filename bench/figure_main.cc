/**
 * @file
 * The main of every regular figure bench: each bench_figNN_* target
 * compiles it with CWSP_FIGURE set to its row of the figure table.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    cwsp::bench::registerFigure(CWSP_FIGURE);
    return cwsp::bench::benchMain(argc, argv);
}
