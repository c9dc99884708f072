(* Helper for the abl-wheel ablation: a heap-based timer queue where
   cancellation marks entries dead and pop skips them. *)

let push h key live = Uksim.Heapq.push h key live

let drain h =
  let fired = ref 0 in
  while not (Uksim.Heapq.is_empty h) do
    if Uksim.Heapq.take h then incr fired
  done;
  !fired
