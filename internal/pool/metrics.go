package pool

import "mica/internal/obs"

// Pool metrics on the default registry. Batch (RunCtx) items and
// long-lived Queue tasks are separate families so a server's steady
// task stream doesn't drown the pipeline batch counts.
var (
	metItems    = obs.Default().Counter("mica_pool_items_total", "Work items dispatched by RunCtx.")
	metFailed   = obs.Default().Counter("mica_pool_item_failures_total", "Work items that returned an error.")
	metPanics   = obs.Default().Counter("mica_pool_item_panics_total", "Work items recovered from a panic.")
	metBusy     = obs.Default().Counter("mica_pool_busy_seconds_total", "Total worker time spent inside work items and queue tasks.")
	metQDepth   = obs.Default().Gauge("mica_pool_queue_depth", "Queue tasks accepted but not finished.")
	metQTasks   = obs.Default().Counter("mica_pool_queue_tasks_total", "Queue tasks accepted.")
	metQRejects = obs.Default().Counter("mica_pool_queue_rejected_total", "Queue submissions rejected (saturated or closed).")
	metQPanics  = obs.Default().Counter("mica_pool_queue_panics_total", "Queue tasks recovered from a panic.")
)
