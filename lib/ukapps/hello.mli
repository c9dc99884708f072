(** The canonical helloworld unikernel payload (Figs 3, 8, 9, 10, 11). *)

val main : clock:Uksim.Clock.t -> unit -> string
(** Formats and "prints" "Hello world!" (charging the console-write
    cost); returns the line written. *)

val work_cycles : int
(** main()'s total cost — what runs after boot in the boot-time figures. *)
