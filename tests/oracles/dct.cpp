#include "oracles/oracles.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer::oracle {

void
transformRowsUnplanned(std::vector<double> &map, int nx, int ny,
                       Dct::Kind kind, ThreadPool *pool)
{
    if (map.size() != static_cast<std::size_t>(nx) * ny)
        panic(str("transformRowsUnplanned: map size ", map.size(),
                  " != ", nx, "x", ny));
    parallelFor(
        pool, static_cast<std::size_t>(ny),
        [&](std::size_t begin, std::size_t end) {
            std::vector<double> row(static_cast<std::size_t>(nx));
            for (std::size_t iy = begin; iy < end; ++iy) {
                double *base = map.data() + iy * nx;
                row.assign(base, base + nx);
                const std::vector<double> out = Dct::apply(kind, row);
                for (int ix = 0; ix < nx; ++ix)
                    base[ix] = out[ix];
            }
        },
        ThreadPool::kGrainCoarse);
}

void
transformColsUnplanned(std::vector<double> &map, int nx, int ny,
                       Dct::Kind kind, ThreadPool *pool)
{
    if (map.size() != static_cast<std::size_t>(nx) * ny)
        panic(str("transformColsUnplanned: map size ", map.size(),
                  " != ", nx, "x", ny));
    parallelFor(
        pool, static_cast<std::size_t>(nx),
        [&](std::size_t begin, std::size_t end) {
            std::vector<double> col(static_cast<std::size_t>(ny));
            for (std::size_t ix = begin; ix < end; ++ix) {
                for (int iy = 0; iy < ny; ++iy)
                    col[iy] =
                        map[static_cast<std::size_t>(iy) * nx + ix];
                const std::vector<double> out = Dct::apply(kind, col);
                for (int iy = 0; iy < ny; ++iy)
                    map[static_cast<std::size_t>(iy) * nx + ix] =
                        out[iy];
            }
        },
        ThreadPool::kGrainCoarse);
}

} // namespace qplacer::oracle
