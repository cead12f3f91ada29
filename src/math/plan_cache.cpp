#include "math/plan_cache.hpp"

#include <map>
#include <mutex>

namespace qplacer {

namespace {

std::mutex g_mutex;
std::map<std::size_t, std::shared_ptr<const DctPlan>> g_dct;

} // namespace

std::shared_ptr<const DctPlan>
PlanCache::dct(std::size_t n)
{
    const std::lock_guard<std::mutex> lock(g_mutex);
    auto it = g_dct.find(n);
    if (it == g_dct.end())
        it = g_dct.emplace(n, std::make_shared<const DctPlan>(n)).first;
    return it->second;
}

std::size_t
PlanCache::size()
{
    const std::lock_guard<std::mutex> lock(g_mutex);
    return g_dct.size();
}

} // namespace qplacer
